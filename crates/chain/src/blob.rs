//! Block header and hashing-blob wire format.
//!
//! The *hashing blob* is the byte string a pool hands to miners as the PoW
//! input (Figure 1 of the paper): the serialized block header (major/minor
//! version, timestamp, previous block id, nonce) followed by the Merkle
//! root of the block's transactions and the transaction count. The paper's
//! observer (§4.2) parses exactly these fields out of the blobs it
//! collects from Coinhive's endpoints, so the format must round-trip.

use minedig_primitives::varint::{write_varint, ByteReader, VarintError};
use minedig_primitives::Hash32;

/// The parsed contents of a hashing blob.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct HashingBlob {
    /// Major block format version.
    pub major_version: u64,
    /// Minor version (vote field).
    pub minor_version: u64,
    /// Block timestamp (seconds).
    pub timestamp: u64,
    /// Id of the previous block.
    pub prev_id: Hash32,
    /// 32-bit nonce iterated by miners.
    pub nonce: u32,
    /// Merkle root over Coinbase + transaction hashes.
    pub merkle_root: Hash32,
    /// Number of transactions (including the Coinbase).
    pub tx_count: u64,
}

impl HashingBlob {
    /// Serializes to the wire format.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(96);
        write_varint(&mut out, self.major_version);
        write_varint(&mut out, self.minor_version);
        write_varint(&mut out, self.timestamp);
        out.extend_from_slice(&self.prev_id.0);
        out.extend_from_slice(&self.nonce.to_le_bytes());
        out.extend_from_slice(&self.merkle_root.0);
        write_varint(&mut out, self.tx_count);
        out
    }

    /// Parses a hashing blob; requires the input to be fully consumed.
    pub fn parse(bytes: &[u8]) -> Result<HashingBlob, VarintError> {
        let mut r = ByteReader::new(bytes);
        let major_version = r.read_varint()?;
        let minor_version = r.read_varint()?;
        let timestamp = r.read_varint()?;
        let prev_id = Hash32::from_slice(r.read_bytes(32)?);
        let nonce = u32::from_le_bytes(r.read_bytes(4)?.try_into().unwrap());
        let merkle_root = Hash32::from_slice(r.read_bytes(32)?);
        let tx_count = r.read_varint()?;
        if !r.is_empty() {
            return Err(VarintError::Overflow);
        }
        Ok(HashingBlob {
            major_version,
            minor_version,
            timestamp,
            prev_id,
            nonce,
            merkle_root,
            tx_count,
        })
    }

    /// Returns a copy with the given nonce — what a miner does per attempt.
    pub fn with_nonce(&self, nonce: u32) -> HashingBlob {
        HashingBlob {
            nonce,
            ..self.clone()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn sample() -> HashingBlob {
        HashingBlob {
            major_version: 7,
            minor_version: 7,
            timestamp: 1_526_342_400, // mid-May 2018
            prev_id: Hash32::keccak(b"prev"),
            nonce: 0xdeadbeef,
            merkle_root: Hash32::keccak(b"root"),
            tx_count: 4,
        }
    }

    #[test]
    fn roundtrip() {
        let b = sample();
        assert_eq!(HashingBlob::parse(&b.to_bytes()).unwrap(), b);
    }

    #[test]
    fn rejects_trailing_garbage() {
        let mut bytes = sample().to_bytes();
        bytes.push(0);
        assert!(HashingBlob::parse(&bytes).is_err());
    }

    #[test]
    fn rejects_truncation() {
        let bytes = sample().to_bytes();
        for cut in [0, 1, 10, 40, bytes.len() - 1] {
            assert!(HashingBlob::parse(&bytes[..cut]).is_err(), "cut {cut}");
        }
    }

    #[test]
    fn with_nonce_only_changes_nonce_bytes() {
        let a = sample();
        let b = a.with_nonce(1);
        let (ab, bb) = (a.to_bytes(), b.to_bytes());
        assert_eq!(ab.len(), bb.len());
        // One-byte versions, a five-byte timestamp varint, the prev id.
        let offset = 1 + 1 + 5 + 32;
        assert_eq!(&ab[..offset], &bb[..offset]);
        assert_eq!(&ab[offset + 4..], &bb[offset + 4..]);
        assert_eq!(&bb[offset..offset + 4], &1u32.to_le_bytes());
    }

    proptest! {
        #[test]
        fn arbitrary_roundtrip(
            major in any::<u64>(),
            minor in any::<u64>(),
            ts in any::<u64>(),
            nonce in any::<u32>(),
            txs in any::<u64>(),
            seed in any::<u64>(),
        ) {
            let b = HashingBlob {
                major_version: major,
                minor_version: minor,
                timestamp: ts,
                prev_id: Hash32::keccak(&seed.to_le_bytes()),
                nonce,
                merkle_root: Hash32::keccak(&seed.to_be_bytes()),
                tx_count: txs,
            };
            prop_assert_eq!(HashingBlob::parse(&b.to_bytes()).unwrap(), b);
        }
    }
}
