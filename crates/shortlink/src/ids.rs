//! Short-link IDs: `https://cnhv.co/[a-z0-9]{1,n}` with increasing
//! assignment.
//!
//! IDs enumerate length-1 codes first, then length-2, and so on — a
//! bijection between `u64` indices and codes. The increasing assignment
//! is the property the paper exploited: "new links are assigned
//! increasing IDs which enables one to enumerate the link address space".

const ALPHABET: &[u8; 36] = b"abcdefghijklmnopqrstuvwxyz0123456789";

/// Longest code the scheme emits or parses. `36^13` overflows `u64`, and
/// the whole length-≤12 space already exceeds any realistic link count
/// (the paper's live space fits in length 4), so both directions cap
/// here: [`code_to_index`] rejects longer codes, [`index_to_code`]
/// saturates at the last length-12 code.
pub const MAX_CODE_LEN: u32 = 12;

/// `FIRST_INDEX[len - 1]` is the index of the first code of length
/// `len`, for `len` in `1..=MAX_CODE_LEN`; the last entry is one past
/// the final length-12 code. Entry `k` is thus the number of codes
/// shorter than `k + 1`: `36 + 36^2 + … + 36^k`.
const FIRST_INDEX: [u64; MAX_CODE_LEN as usize + 1] = {
    let mut first = [0u64; MAX_CODE_LEN as usize + 1];
    let mut len = 1;
    while len <= MAX_CODE_LEN as usize {
        first[len] = first[len - 1] + 36u64.pow(len as u32);
        len += 1;
    }
    first
};

/// The last index with a code of its own; larger indices saturate to
/// its code.
const LAST_INDEX: u64 = FIRST_INDEX[MAX_CODE_LEN as usize] - 1;

/// Converts a link index (0-based creation order) to its code.
///
/// Indices beyond the length-12 address space (a `u64` can exceed
/// [`address_space`]`(12)`) saturate to the final length-12 code rather
/// than panicking — enumeration walks never get close, but the probe
/// layer must survive arbitrary `u64` input.
///
/// ```
/// use minedig_shortlink::{code_to_index, index_to_code};
///
/// assert_eq!(index_to_code(0), "a");
/// assert_eq!(index_to_code(36), "aa");
/// let idx = code_to_index("3w88o").unwrap(); // the paper uses cnhv.co/3w88o
/// assert_eq!(index_to_code(idx), "3w88o");
/// ```
pub fn index_to_code(index: u64) -> String {
    let index = index.min(LAST_INDEX);
    // Codes get longer as indices grow, so the length is the number of
    // lengths whose first index is at or below this one.
    let len = FIRST_INDEX.partition_point(|&first| first <= index);
    let mut offset = index - FIRST_INDEX[len - 1];
    let mut buf = [0u8; MAX_CODE_LEN as usize];
    let code = &mut buf[..len];
    for slot in code.iter_mut().rev() {
        *slot = ALPHABET[(offset % 36) as usize];
        offset /= 36;
    }
    std::str::from_utf8(code)
        .expect("the alphabet is ASCII")
        .to_owned()
}

/// Converts a code back to its index; `None` for invalid characters or
/// empty input.
pub fn code_to_index(code: &str) -> Option<u64> {
    if code.is_empty() || code.len() > MAX_CODE_LEN as usize {
        return None;
    }
    let mut value: u64 = 0;
    for &c in code.as_bytes() {
        let digit = match c {
            b'a'..=b'z' => (c - b'a') as u64,
            b'0'..=b'9' => (c - b'0') as u64 + 26,
            _ => return None,
        };
        value = value * 36 + digit;
    }
    Some(FIRST_INDEX[code.len() - 1] + value)
}

/// Total number of codes with length at most `max_len` (the address-space
/// size the enumerator walks). Saturates at `u64::MAX` for `max_len`
/// ≥ 13, where the exact count no longer fits a `u64`.
pub fn address_space(max_len: u32) -> u64 {
    usize::try_from(max_len)
        .ok()
        .and_then(|len| FIRST_INDEX.get(len))
        .copied()
        .unwrap_or(u64::MAX)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// Codes of length exactly `len`, saturating. The reference
    /// conversions below count codes one length at a time instead of
    /// reading [`FIRST_INDEX`].
    fn codes_of_len(len: u32) -> u64 {
        36u64.checked_pow(len).unwrap_or(u64::MAX)
    }

    fn index_to_code_reference(mut index: u64) -> String {
        let mut len = 1u32;
        while len < MAX_CODE_LEN {
            let count = codes_of_len(len);
            if index < count {
                break;
            }
            index -= count;
            len += 1;
        }
        index = index.min(codes_of_len(MAX_CODE_LEN) - 1);
        let mut code = vec![0u8; len as usize];
        for slot in code.iter_mut().rev() {
            *slot = ALPHABET[(index % 36) as usize];
            index /= 36;
        }
        String::from_utf8(code).unwrap()
    }

    fn code_to_index_reference(code: &str) -> Option<u64> {
        if code.is_empty() || code.len() > MAX_CODE_LEN as usize {
            return None;
        }
        let mut value: u64 = 0;
        for &c in code.as_bytes() {
            let digit = match c {
                b'a'..=b'z' => (c - b'a') as u64,
                b'0'..=b'9' => (c - b'0') as u64 + 26,
                _ => return None,
            };
            value = value * 36 + digit;
        }
        let mut base = 0u64;
        for len in 1..code.len() as u32 {
            base += codes_of_len(len);
        }
        Some(base + value)
    }

    fn assert_matches_reference(index: u64) {
        let code = index_to_code(index);
        assert_eq!(code, index_to_code_reference(index), "index {index}");
        assert_eq!(
            code_to_index(&code),
            code_to_index_reference(&code),
            "code {code}"
        );
    }

    #[test]
    fn conversions_match_the_reference_over_the_first_five_million() {
        for index in 0..5_000_000 {
            assert_matches_reference(index);
        }
    }

    #[test]
    fn conversions_match_the_reference_at_every_boundary() {
        for len in 0..=MAX_CODE_LEN {
            let first = address_space(len);
            for index in [first.saturating_sub(1), first, first + 1] {
                assert_matches_reference(index);
            }
        }
        let last = address_space(MAX_CODE_LEN) - 1;
        for index in [last - 1, last, last + 1, last + 2, u64::MAX - 1, u64::MAX] {
            assert_matches_reference(index);
        }
        assert_eq!(LAST_INDEX, last);
        for code in ["", "A", "a-b", "aaaaaaaaaaaaa", "999999999999", "é"] {
            assert_eq!(
                code_to_index(code),
                code_to_index_reference(code),
                "{code:?}"
            );
        }
    }

    #[test]
    fn first_codes_are_single_chars() {
        assert_eq!(index_to_code(0), "a");
        assert_eq!(index_to_code(25), "z");
        assert_eq!(index_to_code(26), "0");
        assert_eq!(index_to_code(35), "9");
        assert_eq!(index_to_code(36), "aa");
    }

    #[test]
    fn four_char_space_covers_paper_population() {
        // 1,709,203 active links fit in codes of length ≤ 4.
        assert!(address_space(4) >= 1_709_203);
        assert_eq!(address_space(4), 36 + 1_296 + 46_656 + 1_679_616);
        assert_eq!(index_to_code(address_space(4) - 1).len(), 4);
    }

    #[test]
    fn codes_are_increasing_in_length() {
        let mut last_len = 0;
        for i in [0u64, 35, 36, 1_331, 1_332, 47_987, 47_988] {
            let len = index_to_code(i).len();
            assert!(len >= last_len);
            last_len = len;
        }
    }

    #[test]
    fn invalid_codes_rejected() {
        assert_eq!(code_to_index(""), None);
        assert_eq!(code_to_index("A"), None);
        assert_eq!(code_to_index("a-b"), None);
        assert_eq!(code_to_index(&"a".repeat(13)), None);
    }

    #[test]
    fn extreme_indices_do_not_overflow() {
        // Regression: counting the codes of each length once used an
        // unchecked `pow`, so any index
        // past the length-12 space panicked in debug builds at len 13.
        assert_eq!(index_to_code(u64::MAX), "9".repeat(12));
        assert_eq!(index_to_code(u64::MAX).len(), MAX_CODE_LEN as usize);
        // Saturation starts exactly at the end of the length-12 space.
        let last = address_space(MAX_CODE_LEN) - 1;
        assert_eq!(index_to_code(last), "9".repeat(12));
        assert_eq!(code_to_index(&index_to_code(last)), Some(last));
        assert_eq!(index_to_code(last - 1), format!("{}8", "9".repeat(11)));
        assert_eq!(index_to_code(last + 1), index_to_code(last));
    }

    #[test]
    fn address_space_saturates_past_len_12() {
        // Exact below the cap…
        assert_eq!(address_space(12), (1..=12u32).map(|l| 36u64.pow(l)).sum());
        assert!(address_space(12) < u64::MAX);
        // …saturating above it instead of overflowing.
        assert_eq!(address_space(13), u64::MAX);
        assert_eq!(address_space(u32::MAX), u64::MAX);
    }

    #[test]
    fn roundtrip_at_every_length_boundary() {
        for len in 1..=MAX_CODE_LEN {
            let first = address_space(len - 1);
            let last = address_space(len) - 1;
            for index in [first, last] {
                let code = index_to_code(index);
                assert_eq!(code.len(), len as usize, "index {index}");
                assert_eq!(code_to_index(&code), Some(index));
            }
        }
    }

    #[test]
    fn known_roundtrip_examples() {
        for code in ["a", "z9", "3w88o", "0000"] {
            let idx = code_to_index(code).unwrap();
            assert_eq!(index_to_code(idx), code);
        }
    }

    proptest! {
        #[test]
        fn roundtrip(index in 0u64..3_000_000_000) {
            let code = index_to_code(index);
            prop_assert_eq!(code_to_index(&code), Some(index));
        }

        #[test]
        fn conversions_match_the_reference_over_all_of_u64(raw in any::<u64>(), shift in 0u32..64) {
            // Uniform draws mostly saturate; shifting them down reaches
            // every code length.
            for index in [raw, raw >> shift] {
                let code = index_to_code(index);
                prop_assert_eq!(&code, &index_to_code_reference(index));
                prop_assert_eq!(code_to_index(&code), code_to_index_reference(&code));
            }
        }

        #[test]
        fn codes_are_injective(a in 0u64..1_000_000, b in 0u64..1_000_000) {
            // Larger indices never get shorter codes, and distinct
            // indices get distinct codes.
            let (ca, cb) = (index_to_code(a), index_to_code(b));
            if a != b {
                prop_assert_ne!(&ca, &cb);
            }
            if a < b {
                prop_assert!(ca.len() <= cb.len());
            }
        }
    }
}
