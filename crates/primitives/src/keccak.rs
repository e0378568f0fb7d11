//! Keccak-f[1600] permutation and the sponge constructions built on it.
//!
//! Monero uses the *original* Keccak submission padding (a single `0x01`
//! domain byte) rather than the NIST SHA-3 padding (`0x06`); [`keccak256`]
//! implements the former (this is Monero's `cn_fast_hash`) and [`sha3_256`]
//! the latter. [`keccak1600`] exposes the full 200-byte state after
//! absorbing the input, which the CryptoNight-style PoW in `minedig-pow`
//! uses to seed its scratchpad, exactly mirroring the structure of the real
//! CryptoNight initialization.

const ROUNDS: usize = 24;

const RC: [u64; ROUNDS] = [
    0x0000000000000001,
    0x0000000000008082,
    0x800000000000808a,
    0x8000000080008000,
    0x000000000000808b,
    0x0000000080000001,
    0x8000000080008081,
    0x8000000000008009,
    0x000000000000008a,
    0x0000000000000088,
    0x0000000080008009,
    0x000000008000000a,
    0x000000008000808b,
    0x800000000000008b,
    0x8000000000008089,
    0x8000000000008003,
    0x8000000000008002,
    0x8000000000000080,
    0x000000000000800a,
    0x800000008000000a,
    0x8000000080008081,
    0x8000000000008080,
    0x0000000080000001,
    0x8000000080008008,
];

const RHO: [u32; 24] = [
    1, 3, 6, 10, 15, 21, 28, 36, 45, 55, 2, 14, 27, 41, 56, 8, 25, 43, 62, 18, 39, 61, 20, 44,
];

const PI: [usize; 24] = [
    10, 7, 11, 17, 18, 3, 5, 16, 8, 21, 24, 4, 15, 23, 19, 13, 12, 2, 20, 14, 22, 9, 6, 1,
];

/// Applies the Keccak-f[1600] permutation in place to a 25-lane state.
pub fn keccak_f1600(state: &mut [u64; 25]) {
    for &rc in RC.iter() {
        // Theta.
        let mut c = [0u64; 5];
        for x in 0..5 {
            c[x] = state[x] ^ state[x + 5] ^ state[x + 10] ^ state[x + 15] ^ state[x + 20];
        }
        for x in 0..5 {
            let d = c[(x + 4) % 5] ^ c[(x + 1) % 5].rotate_left(1);
            for y in 0..5 {
                state[x + 5 * y] ^= d;
            }
        }
        // Rho and Pi.
        let mut last = state[1];
        for i in 0..24 {
            let j = PI[i];
            let tmp = state[j];
            state[j] = last.rotate_left(RHO[i]);
            last = tmp;
        }
        // Chi.
        for y in 0..5 {
            let row = [
                state[5 * y],
                state[5 * y + 1],
                state[5 * y + 2],
                state[5 * y + 3],
                state[5 * y + 4],
            ];
            for x in 0..5 {
                state[5 * y + x] = row[x] ^ (!row[(x + 1) % 5] & row[(x + 2) % 5]);
            }
        }
        // Iota.
        state[0] ^= rc;
    }
}

/// Rate in bytes of the 256-bit constructions (and of [`keccak1600`]).
const RATE: usize = 136;

/// An absorbing Keccak sponge of rate [`RATE`]: input arrives in any
/// number of pieces and is buffered in one rate block on the stack, so
/// hashing a concatenation allocates nothing.
pub(crate) struct Sponge {
    state: [u64; 25],
    block: [u8; RATE],
    filled: usize,
}

impl Sponge {
    /// An empty sponge.
    pub(crate) fn new() -> Sponge {
        Sponge {
            state: [0u64; 25],
            block: [0u8; RATE],
            filled: 0,
        }
    }

    /// Absorbs `data`, permuting after each full rate block.
    pub(crate) fn absorb(&mut self, mut data: &[u8]) {
        while !data.is_empty() {
            let take = (RATE - self.filled).min(data.len());
            self.block[self.filled..self.filled + take].copy_from_slice(&data[..take]);
            self.filled += take;
            data = &data[take..];
            if self.filled == RATE {
                absorb_block(&mut self.state, &self.block);
                keccak_f1600(&mut self.state);
                self.filled = 0;
            }
        }
    }

    /// Pads the last block with the domain byte `pad` and permutes: the
    /// returned state's first lanes are the digest.
    fn finish(mut self, pad: u8) -> [u64; 25] {
        self.block[self.filled..].fill(0);
        self.block[self.filled] = pad;
        self.block[RATE - 1] |= 0x80;
        absorb_block(&mut self.state, &self.block);
        keccak_f1600(&mut self.state);
        self.state
    }

    /// Keccak-256 with original padding of everything absorbed.
    pub(crate) fn keccak256(self) -> [u8; 32] {
        digest(&self.finish(0x01))
    }
}

/// The first 32 bytes of a squeezed state (rate 136 holds all of them).
fn digest(state: &[u64; 25]) -> [u8; 32] {
    let mut out = [0u8; 32];
    for (chunk, lane) in out.chunks_exact_mut(8).zip(state) {
        chunk.copy_from_slice(&lane.to_le_bytes());
    }
    out
}

fn absorb_block(state: &mut [u64; 25], block: &[u8]) {
    for (lane, chunk) in block.chunks_exact(8).enumerate() {
        state[lane] ^= u64::from_le_bytes(chunk.try_into().unwrap());
    }
}

/// Keccak-256 with original padding (Monero's `cn_fast_hash`).
pub fn keccak256(data: &[u8]) -> [u8; 32] {
    let mut sponge = Sponge::new();
    sponge.absorb(data);
    sponge.keccak256()
}

/// NIST SHA3-256.
pub fn sha3_256(data: &[u8]) -> [u8; 32] {
    let mut sponge = Sponge::new();
    sponge.absorb(data);
    digest(&sponge.finish(0x06))
}

/// Absorbs `data` with rate 136/original padding and returns the full
/// 200-byte state. This is the `keccak1600` used by CryptoNight to derive
/// its scratchpad seed and AES round keys.
pub fn keccak1600(data: &[u8]) -> [u8; 200] {
    let mut sponge = Sponge::new();
    sponge.absorb(data);
    let state = sponge.finish(0x01);
    let mut out = [0u8; 200];
    for (chunk, lane) in out.chunks_exact_mut(8).zip(&state) {
        chunk.copy_from_slice(&lane.to_le_bytes());
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hex::to_hex;

    #[test]
    fn keccak256_empty_matches_known_vector() {
        // Keccak-256("") — the classic pre-NIST vector (as used by Ethereum
        // and Monero's cn_fast_hash).
        assert_eq!(
            to_hex(&keccak256(b"")),
            "c5d2460186f7233c927e7db2dcc703c0e500b653ca82273b7bfad8045d85a470"
        );
    }

    #[test]
    fn keccak256_abc_matches_known_vector() {
        assert_eq!(
            to_hex(&keccak256(b"abc")),
            "4e03657aea45a94fc7d47ba826c8d667c0d1e6e33a64a036ec44f58fa12d6c45"
        );
    }

    #[test]
    fn sha3_256_empty_matches_known_vector() {
        assert_eq!(
            to_hex(&sha3_256(b"")),
            "a7ffc6f8bf1ed76651c14756a061d662f580ff4de43b49fa82d80a4b80f8434a"
        );
    }

    #[test]
    fn sha3_256_abc_matches_known_vector() {
        assert_eq!(
            to_hex(&sha3_256(b"abc")),
            "3a985da74fe225b2045c172d6bd390bd855f086e3e9d525b46bfe24511431532"
        );
    }

    #[test]
    fn keccak256_handles_rate_boundary_inputs() {
        // Exactly one rate block (136 bytes) forces an all-padding block.
        let exact = vec![0xaau8; 136];
        let just_under = vec![0xaau8; 135];
        let just_over = vec![0xaau8; 137];
        let h1 = keccak256(&exact);
        let h2 = keccak256(&just_under);
        let h3 = keccak256(&just_over);
        assert_ne!(h1, h2);
        assert_ne!(h1, h3);
        assert_ne!(h2, h3);
    }

    #[test]
    fn absorbing_in_pieces_hashes_the_concatenation() {
        let data: Vec<u8> = (0..400u32).map(|i| (i * 7 + 3) as u8).collect();
        for len in [0usize, 1, 31, 135, 136, 137, 271, 272, 273, 400] {
            for cut in [0, 1.min(len), len / 2, len.saturating_sub(1), len] {
                let mut sponge = Sponge::new();
                sponge.absorb(&data[..cut]);
                sponge.absorb(&data[cut..len]);
                assert_eq!(
                    sponge.keccak256(),
                    keccak256(&data[..len]),
                    "{len} cut {cut}"
                );
            }
        }
    }

    #[test]
    fn keccak1600_prefix_matches_keccak256() {
        // The first 32 bytes of the final state are exactly keccak256's
        // output for rate-136 absorption.
        let data = b"the quick brown fox";
        let full = keccak1600(data);
        assert_eq!(&full[..32], &keccak256(data)[..]);
    }

    #[test]
    fn keccak1600_state_is_input_sensitive() {
        let a = keccak1600(b"input a");
        let b = keccak1600(b"input b");
        let differing = a.iter().zip(b.iter()).filter(|(x, y)| x != y).count();
        // Avalanche: the vast majority of the 200 state bytes must differ.
        assert!(differing > 150, "only {differing} bytes differ");
    }

    #[test]
    fn permutation_changes_zero_state() {
        let mut s = [0u64; 25];
        keccak_f1600(&mut s);
        assert_eq!(s[0], 0xf1258f7940e1dde7); // known Keccak-f[1600] vector
    }
}
