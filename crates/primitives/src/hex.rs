//! Minimal hexadecimal encoding/decoding.

/// Encodes `bytes` as a lowercase hex string.
pub fn to_hex(bytes: &[u8]) -> String {
    const ALPHABET: &[u8; 16] = b"0123456789abcdef";
    let mut out = vec![0u8; bytes.len() * 2];
    for (pair, &b) in out.chunks_exact_mut(2).zip(bytes) {
        pair[0] = ALPHABET[usize::from(b >> 4)];
        pair[1] = ALPHABET[usize::from(b & 0xf)];
    }
    String::from_utf8(out).expect("hex digits are ASCII")
}

/// Marks a byte that is not a hex digit in [`NIBBLE`].
const NOT_HEX: u8 = 0xff;

/// The value of each hex digit byte, upper- or lowercase, and
/// [`NOT_HEX`] for every other byte.
const NIBBLE: [u8; 256] = {
    let mut table = [NOT_HEX; 256];
    let mut i = 0;
    while i < 10 {
        table[b'0' as usize + i] = i as u8;
        i += 1;
    }
    let mut i = 0;
    while i < 6 {
        table[b'a' as usize + i] = 10 + i as u8;
        table[b'A' as usize + i] = 10 + i as u8;
        i += 1;
    }
    table
};

/// Decodes a hex string (upper- or lowercase). Returns `None` on odd length
/// or non-hex characters.
pub fn from_hex(s: &str) -> Option<Vec<u8>> {
    let digits = s.as_bytes();
    if !digits.len().is_multiple_of(2) {
        return None;
    }
    let mut out = vec![0u8; digits.len() / 2];
    for (byte, pair) in out.iter_mut().zip(digits.chunks_exact(2)) {
        let (hi, lo) = (NIBBLE[usize::from(pair[0])], NIBBLE[usize::from(pair[1])]);
        if (hi | lo) == NOT_HEX {
            return None;
        }
        *byte = (hi << 4) | lo;
    }
    Some(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The char-push encoder `to_hex` replaced: the reference it must
    /// match.
    fn to_hex_pushing(bytes: &[u8]) -> String {
        const ALPHABET: &[u8; 16] = b"0123456789abcdef";
        let mut out = String::with_capacity(bytes.len() * 2);
        for &b in bytes {
            out.push(ALPHABET[(b >> 4) as usize] as char);
            out.push(ALPHABET[(b & 0xf) as usize] as char);
        }
        out
    }

    /// The match-per-digit decoder `from_hex` replaced: the reference it
    /// must match.
    fn from_hex_matching(s: &str) -> Option<Vec<u8>> {
        if !s.len().is_multiple_of(2) {
            return None;
        }
        let mut out = Vec::with_capacity(s.len() / 2);
        for pair in s.as_bytes().chunks_exact(2) {
            out.push((nibble(pair[0])? << 4) | nibble(pair[1])?);
        }
        Some(out)
    }

    fn nibble(c: u8) -> Option<u8> {
        match c {
            b'0'..=b'9' => Some(c - b'0'),
            b'a'..=b'f' => Some(c - b'a' + 10),
            b'A'..=b'F' => Some(c - b'A' + 10),
            _ => None,
        }
    }

    #[test]
    fn encodes_known_vector() {
        assert_eq!(to_hex(&[0x00, 0xff, 0x10]), "00ff10");
    }

    #[test]
    fn decodes_known_vector() {
        assert_eq!(from_hex("00ff10").unwrap(), vec![0x00, 0xff, 0x10]);
    }

    #[test]
    fn decodes_uppercase() {
        assert_eq!(from_hex("DEADBEEF").unwrap(), vec![0xde, 0xad, 0xbe, 0xef]);
    }

    #[test]
    fn rejects_odd_length() {
        assert!(from_hex("abc").is_none());
    }

    #[test]
    fn rejects_non_hex() {
        assert!(from_hex("zz").is_none());
        assert!(from_hex("0g").is_none());
    }

    #[test]
    fn empty_roundtrip() {
        assert_eq!(to_hex(&[]), "");
        assert_eq!(from_hex("").unwrap(), Vec::<u8>::new());
    }

    #[test]
    fn table_decoder_matches_the_matching_decoder() {
        for byte in 0..=u8::MAX {
            let want = nibble(byte).unwrap_or(NOT_HEX);
            assert_eq!(NIBBLE[usize::from(byte)], want, "{byte:#04x}");
        }
        // All 65,536 byte pairs, decoded wherever they are a string.
        for pair in 0..=u16::MAX {
            let bytes = pair.to_be_bytes();
            if let Ok(s) = std::str::from_utf8(&bytes) {
                assert_eq!(from_hex(s), from_hex_matching(s), "{bytes:02x?}");
            }
        }
        for s in ["é0", "0é", "éé", "€0", "0\u{10ffff}", "abc", "aa\0"] {
            assert_eq!(from_hex(s), from_hex_matching(s), "{s:?}");
        }
    }

    proptest! {
        #[test]
        fn table_encoder_matches_the_pushing_encoder(bytes in proptest::collection::vec(any::<u8>(), 0..300)) {
            prop_assert_eq!(to_hex(&bytes), to_hex_pushing(&bytes));
            prop_assert_eq!(from_hex(&to_hex(&bytes)), Some(bytes));
        }

        #[test]
        fn table_decoder_matches_the_matching_decoder_on_any_string(s in "[0-9a-gA-Gé€]{0,40}") {
            prop_assert_eq!(from_hex(&s), from_hex_matching(&s));
        }
    }
}
