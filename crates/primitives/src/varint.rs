//! Variable-length integer codecs.
//!
//! Two flavours are provided:
//!
//! * [`write_varint`]/[`read_varint`] — the 7-bit little-endian varint used
//!   by Monero's block/transaction blob format (identical wire format to
//!   unsigned LEB128, capped at `u64`).
//! * [`write_sleb128`]/[`read_sleb128`] — signed LEB128, needed by the
//!   WebAssembly binary format for `i32.const`/`i64.const` immediates.

/// Error returned when a varint cannot be decoded.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum VarintError {
    /// Input ended in the middle of a varint.
    UnexpectedEof,
    /// Encoding exceeds the range of the target type.
    Overflow,
}

impl std::fmt::Display for VarintError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            VarintError::UnexpectedEof => f.write_str("unexpected end of input in varint"),
            VarintError::Overflow => f.write_str("varint overflows target type"),
        }
    }
}

impl std::error::Error for VarintError {}

/// Appends the unsigned varint encoding of `value` to `out`.
pub fn write_varint(out: &mut Vec<u8>, mut value: u64) {
    loop {
        let byte = (value & 0x7f) as u8;
        value >>= 7;
        if value == 0 {
            out.push(byte);
            return;
        }
        out.push(byte | 0x80);
    }
}

/// Reads an unsigned varint from the front of `input`, returning the value
/// and the number of bytes consumed.
pub fn read_varint(input: &[u8]) -> Result<(u64, usize), VarintError> {
    let mut value: u64 = 0;
    let mut shift = 0u32;
    for (i, &byte) in input.iter().enumerate() {
        let chunk = (byte & 0x7f) as u64;
        if shift >= 64 || (shift == 63 && chunk > 1) {
            return Err(VarintError::Overflow);
        }
        value |= chunk << shift;
        if byte & 0x80 == 0 {
            return Ok((value, i + 1));
        }
        shift += 7;
    }
    Err(VarintError::UnexpectedEof)
}

/// Appends the signed LEB128 encoding of `value` to `out`.
pub fn write_sleb128(out: &mut Vec<u8>, mut value: i64) {
    loop {
        let byte = (value & 0x7f) as u8;
        value >>= 7;
        let sign_clear = byte & 0x40 == 0;
        if (value == 0 && sign_clear) || (value == -1 && !sign_clear) {
            out.push(byte);
            return;
        }
        out.push(byte | 0x80);
    }
}

/// Reads a signed LEB128 value from the front of `input`, returning the
/// value and the number of bytes consumed.
pub fn read_sleb128(input: &[u8]) -> Result<(i64, usize), VarintError> {
    let mut value: i64 = 0;
    let mut shift = 0u32;
    for (i, &byte) in input.iter().enumerate() {
        if shift >= 64 {
            return Err(VarintError::Overflow);
        }
        value |= ((byte & 0x7f) as i64).wrapping_shl(shift);
        shift += 7;
        if byte & 0x80 == 0 {
            if shift < 64 && byte & 0x40 != 0 {
                value |= -1i64 << shift; // sign-extend
            }
            return Ok((value, i + 1));
        }
    }
    Err(VarintError::UnexpectedEof)
}

/// A cursor over a byte slice with varint-aware reads; shared by the
/// Monero blob parser and the Wasm binary parser.
pub struct ByteReader<'a> {
    data: &'a [u8],
    pos: usize,
}

impl<'a> ByteReader<'a> {
    /// Wraps `data` with the cursor at offset zero.
    pub fn new(data: &'a [u8]) -> Self {
        ByteReader { data, pos: 0 }
    }

    /// Current offset from the start of the underlying slice.
    pub fn position(&self) -> usize {
        self.pos
    }

    /// Bytes left to read.
    pub fn remaining(&self) -> usize {
        self.data.len() - self.pos
    }

    /// True when the cursor has consumed the whole slice.
    pub fn is_empty(&self) -> bool {
        self.remaining() == 0
    }

    /// Reads one byte.
    pub fn read_u8(&mut self) -> Result<u8, VarintError> {
        if self.pos >= self.data.len() {
            return Err(VarintError::UnexpectedEof);
        }
        let b = self.data[self.pos];
        self.pos += 1;
        Ok(b)
    }

    /// Reads `n` raw bytes.
    pub fn read_bytes(&mut self, n: usize) -> Result<&'a [u8], VarintError> {
        if self.remaining() < n {
            return Err(VarintError::UnexpectedEof);
        }
        let s = &self.data[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// Reads an unsigned varint.
    pub fn read_varint(&mut self) -> Result<u64, VarintError> {
        let (v, n) = read_varint(&self.data[self.pos..])?;
        self.pos += n;
        Ok(v)
    }

    /// Reads a signed LEB128.
    pub fn read_sleb128(&mut self) -> Result<i64, VarintError> {
        let (v, n) = read_sleb128(&self.data[self.pos..])?;
        self.pos += n;
        Ok(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn varint_known_encodings() {
        let mut out = Vec::new();
        write_varint(&mut out, 0);
        assert_eq!(out, [0x00]);
        out.clear();
        write_varint(&mut out, 127);
        assert_eq!(out, [0x7f]);
        out.clear();
        write_varint(&mut out, 128);
        assert_eq!(out, [0x80, 0x01]);
        out.clear();
        write_varint(&mut out, 300);
        assert_eq!(out, [0xac, 0x02]);
    }

    #[test]
    fn varint_max_u64_roundtrip() {
        let mut out = Vec::new();
        write_varint(&mut out, u64::MAX);
        assert_eq!(out.len(), 10);
        let (v, n) = read_varint(&out).unwrap();
        assert_eq!(v, u64::MAX);
        assert_eq!(n, 10);
    }

    #[test]
    fn varint_truncated_input_errors() {
        assert_eq!(read_varint(&[0x80]), Err(VarintError::UnexpectedEof));
        assert_eq!(read_varint(&[]), Err(VarintError::UnexpectedEof));
    }

    #[test]
    fn varint_overflow_is_rejected() {
        // 11 continuation bytes overflow u64.
        let bad = [
            0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01,
        ];
        assert_eq!(read_varint(&bad), Err(VarintError::Overflow));
    }

    #[test]
    fn sleb128_known_encodings() {
        let mut out = Vec::new();
        write_sleb128(&mut out, -1);
        assert_eq!(out, [0x7f]);
        out.clear();
        write_sleb128(&mut out, -64);
        assert_eq!(out, [0x40]);
        out.clear();
        write_sleb128(&mut out, 64);
        assert_eq!(out, [0xc0, 0x00]);
    }

    #[test]
    fn reader_sequencing() {
        let mut buf = Vec::new();
        buf.push(7u8);
        write_varint(&mut buf, 1_000_000);
        buf.extend_from_slice(b"abc");
        let mut r = ByteReader::new(&buf);
        assert_eq!(r.read_u8().unwrap(), 7);
        assert_eq!(r.read_varint().unwrap(), 1_000_000);
        assert_eq!(r.read_bytes(3).unwrap(), b"abc");
        assert!(r.is_empty());
        assert!(r.read_u8().is_err());
    }

    proptest! {
        #[test]
        fn varint_roundtrip(v in any::<u64>()) {
            let mut out = Vec::new();
            write_varint(&mut out, v);
            let (decoded, used) = read_varint(&out).unwrap();
            prop_assert_eq!(decoded, v);
            prop_assert_eq!(used, out.len());
        }

        #[test]
        fn sleb128_roundtrip(v in any::<i64>()) {
            let mut out = Vec::new();
            write_sleb128(&mut out, v);
            let (decoded, used) = read_sleb128(&out).unwrap();
            prop_assert_eq!(decoded, v);
            prop_assert_eq!(used, out.len());
        }

        #[test]
        fn varint_encoding_is_minimal(v in any::<u64>()) {
            let mut out = Vec::new();
            write_varint(&mut out, v);
            // Minimal length: ceil(bits/7) with at least one byte.
            let bits = 64 - v.leading_zeros().min(63) as usize;
            let expect = usize::max(1, bits.div_ceil(7));
            prop_assert_eq!(out.len(), expect);
        }
    }
}
