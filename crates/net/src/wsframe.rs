//! RFC 6455-style WebSocket frame codec.
//!
//! The Coinhive miner speaks JSON over WebSockets; the paper instruments
//! Chrome specifically to capture that traffic (§3.2) and connects to the
//! pool's WebSocket endpoints directly (§4.2). This module implements the
//! on-the-wire frame layer: FIN bit + opcode, 7/16/64-bit payload lengths,
//! and client-to-server masking. The HTTP upgrade handshake is out of
//! scope — the TCP transport starts framing immediately — but the frame
//! format itself is the real one, so captured byte streams look like
//! WebSocket traffic to the instrumentation layer.

use bytes::{Buf, BufMut, BytesMut};

/// Frame opcodes (the subset we use).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Opcode {
    /// UTF-8 text payload (all protocol messages are JSON text).
    Text,
    /// Binary payload.
    Binary,
    /// Connection close.
    Close,
    /// Ping.
    Ping,
    /// Pong.
    Pong,
}

impl Opcode {
    fn to_bits(self) -> u8 {
        match self {
            Opcode::Text => 0x1,
            Opcode::Binary => 0x2,
            Opcode::Close => 0x8,
            Opcode::Ping => 0x9,
            Opcode::Pong => 0xa,
        }
    }

    fn from_bits(bits: u8) -> Option<Opcode> {
        match bits {
            0x1 => Some(Opcode::Text),
            0x2 => Some(Opcode::Binary),
            0x8 => Some(Opcode::Close),
            0x9 => Some(Opcode::Ping),
            0xa => Some(Opcode::Pong),
            _ => None,
        }
    }
}

/// A decoded frame.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct WsFrame {
    /// Frame opcode.
    pub opcode: Opcode,
    /// Unmasked payload bytes.
    pub payload: Vec<u8>,
}

/// Decode errors; any of these should terminate the connection.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WsError {
    /// Reserved bits set or fragmented frames (unsupported).
    Unsupported(&'static str),
    /// Unknown opcode.
    BadOpcode(u8),
    /// Payload larger than the sanity limit.
    TooLarge(u64),
}

impl std::fmt::Display for WsError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WsError::Unsupported(what) => write!(f, "unsupported ws feature: {what}"),
            WsError::BadOpcode(op) => write!(f, "unknown ws opcode {op:#x}"),
            WsError::TooLarge(n) => write!(f, "ws payload of {n} bytes exceeds limit"),
        }
    }
}

impl std::error::Error for WsError {}

/// Payload sanity limit (16 MiB); protects servers from hostile lengths.
pub const MAX_PAYLOAD: u64 = 16 * 1024 * 1024;

/// Encodes a frame. `mask` is `Some(key)` for client→server frames (the
/// RFC requires clients to mask) and `None` for server→client frames.
pub fn encode_ws(out: &mut BytesMut, opcode: Opcode, payload: &[u8], mask: Option<[u8; 4]>) {
    out.reserve(payload.len() + 14);
    out.put_u8(0x80 | opcode.to_bits()); // FIN + opcode
    let mask_bit = if mask.is_some() { 0x80u8 } else { 0 };
    let len = payload.len();
    if len < 126 {
        out.put_u8(mask_bit | len as u8);
    } else if len <= u16::MAX as usize {
        out.put_u8(mask_bit | 126);
        out.put_u16(len as u16);
    } else {
        out.put_u8(mask_bit | 127);
        out.put_u64(len as u64);
    }
    match mask {
        Some(key) => {
            out.put_slice(&key);
            for (i, &b) in payload.iter().enumerate() {
                out.put_u8(b ^ key[i % 4]);
            }
        }
        None => out.put_slice(payload),
    }
}

/// Attempts to decode one frame from the front of `buf`.
///
/// Returns `Ok(None)` when more bytes are needed; consumes the frame on
/// success.
pub fn decode_ws(buf: &mut BytesMut) -> Result<Option<WsFrame>, WsError> {
    if buf.len() < 2 {
        return Ok(None);
    }
    let b0 = buf[0];
    let b1 = buf[1];
    if b0 & 0x70 != 0 {
        return Err(WsError::Unsupported("rsv bits"));
    }
    if b0 & 0x80 == 0 {
        return Err(WsError::Unsupported("fragmentation"));
    }
    let opcode = Opcode::from_bits(b0 & 0x0f).ok_or(WsError::BadOpcode(b0 & 0x0f))?;
    let masked = b1 & 0x80 != 0;
    let len7 = (b1 & 0x7f) as u64;
    let mut header = 2usize;
    let payload_len = match len7 {
        126 => {
            if buf.len() < 4 {
                return Ok(None);
            }
            header = 4;
            u16::from_be_bytes(buf[2..4].try_into().unwrap()) as u64
        }
        127 => {
            if buf.len() < 10 {
                return Ok(None);
            }
            header = 10;
            u64::from_be_bytes(buf[2..10].try_into().unwrap())
        }
        n => n,
    };
    if payload_len > MAX_PAYLOAD {
        return Err(WsError::TooLarge(payload_len));
    }
    let mask_len = if masked { 4 } else { 0 };
    let total = header + mask_len + payload_len as usize;
    if buf.len() < total {
        return Ok(None);
    }
    buf.advance(header);
    let key: Option<[u8; 4]> = if masked {
        let k = buf.split_to(4);
        Some([k[0], k[1], k[2], k[3]])
    } else {
        None
    };
    let mut payload = buf.split_to(payload_len as usize).to_vec();
    if let Some(key) = key {
        for (i, b) in payload.iter_mut().enumerate() {
            *b ^= key[i % 4];
        }
    }
    Ok(Some(WsFrame { opcode, payload }))
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn unmasked_roundtrip() {
        let mut buf = BytesMut::new();
        encode_ws(&mut buf, Opcode::Text, b"{\"t\":1}", None);
        let f = decode_ws(&mut buf).unwrap().unwrap();
        assert_eq!(f.opcode, Opcode::Text);
        assert_eq!(f.payload, b"{\"t\":1}");
        assert!(buf.is_empty());
    }

    #[test]
    fn masked_roundtrip() {
        let mut buf = BytesMut::new();
        encode_ws(&mut buf, Opcode::Binary, b"secret", Some([1, 2, 3, 4]));
        // Masked payload must differ from plaintext on the wire.
        assert!(!buf.windows(6).any(|w| w == b"secret"));
        let f = decode_ws(&mut buf).unwrap().unwrap();
        assert_eq!(f.payload, b"secret");
    }

    #[test]
    fn medium_length_uses_16bit_form() {
        let payload = vec![7u8; 300];
        let mut buf = BytesMut::new();
        encode_ws(&mut buf, Opcode::Binary, &payload, None);
        assert_eq!(buf[1] & 0x7f, 126);
        let f = decode_ws(&mut buf).unwrap().unwrap();
        assert_eq!(f.payload.len(), 300);
    }

    #[test]
    fn large_length_uses_64bit_form() {
        let payload = vec![7u8; 70_000];
        let mut buf = BytesMut::new();
        encode_ws(&mut buf, Opcode::Binary, &payload, None);
        assert_eq!(buf[1] & 0x7f, 127);
        let f = decode_ws(&mut buf).unwrap().unwrap();
        assert_eq!(f.payload.len(), 70_000);
    }

    #[test]
    fn incomplete_frames_wait() {
        let mut full = BytesMut::new();
        encode_ws(&mut full, Opcode::Text, b"hello world", Some([9, 9, 9, 9]));
        for cut in 0..full.len() {
            let mut partial = BytesMut::from(&full[..cut]);
            assert_eq!(decode_ws(&mut partial).unwrap(), None, "cut {cut}");
        }
    }

    #[test]
    fn control_frames() {
        for op in [Opcode::Close, Opcode::Ping, Opcode::Pong] {
            let mut buf = BytesMut::new();
            encode_ws(&mut buf, op, b"", None);
            assert_eq!(decode_ws(&mut buf).unwrap().unwrap().opcode, op);
        }
    }

    #[test]
    fn rejects_reserved_bits_and_bad_opcodes() {
        let mut buf = BytesMut::from(&[0xf1u8, 0x00][..]); // rsv bits set
        assert!(matches!(decode_ws(&mut buf), Err(WsError::Unsupported(_))));
        let mut buf = BytesMut::from(&[0x83u8, 0x00][..]); // opcode 0x3
        assert!(matches!(decode_ws(&mut buf), Err(WsError::BadOpcode(3))));
        let mut buf = BytesMut::from(&[0x01u8, 0x00][..]); // FIN unset
        assert!(matches!(decode_ws(&mut buf), Err(WsError::Unsupported(_))));
    }

    #[test]
    fn rejects_oversized_declared_payload() {
        let mut buf = BytesMut::new();
        buf.put_u8(0x82);
        buf.put_u8(127);
        buf.put_u64(u64::MAX);
        assert!(matches!(decode_ws(&mut buf), Err(WsError::TooLarge(_))));
    }

    #[test]
    fn payload_cap_boundary_is_exact() {
        // A header declaring exactly MAX_PAYLOAD is legal (the decoder
        // waits for the bytes); one more byte is refused before any
        // payload is buffered.
        let mut buf = BytesMut::new();
        buf.put_u8(0x82);
        buf.put_u8(127);
        buf.put_u64(MAX_PAYLOAD);
        assert_eq!(decode_ws(&mut buf), Ok(None));

        let mut buf = BytesMut::new();
        buf.put_u8(0x82);
        buf.put_u8(127);
        buf.put_u64(MAX_PAYLOAD + 1);
        assert_eq!(decode_ws(&mut buf), Err(WsError::TooLarge(MAX_PAYLOAD + 1)));
    }

    proptest! {
        #[test]
        fn roundtrip_any_payload(
            payload in prop::collection::vec(any::<u8>(), 0..2048),
            key in any::<Option<[u8; 4]>>(),
            text in any::<bool>(),
        ) {
            let op = if text { Opcode::Text } else { Opcode::Binary };
            let mut buf = BytesMut::new();
            encode_ws(&mut buf, op, &payload, key);
            let f = decode_ws(&mut buf).unwrap().unwrap();
            prop_assert_eq!(f.opcode, op);
            prop_assert_eq!(f.payload, payload);
            prop_assert!(buf.is_empty());
        }

        #[test]
        fn streamed_frames_all_decode(
            payloads in prop::collection::vec(prop::collection::vec(any::<u8>(), 0..200), 1..8),
        ) {
            let mut wire = BytesMut::new();
            for p in &payloads {
                encode_ws(&mut wire, Opcode::Binary, p, Some([1,2,3,4]));
            }
            let mut out = Vec::new();
            while let Some(f) = decode_ws(&mut wire).unwrap() {
                out.push(f.payload);
            }
            prop_assert_eq!(out, payloads);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(40))]

        #[test]
        fn roundtrip_at_length_boundaries(
            len_ix in 0usize..4,
            op_ix in 0usize..5,
            key in any::<Option<[u8; 4]>>(),
        ) {
            // The exact edges of the three length encodings: the last
            // 7-bit length, the first 16-bit one, the last 16-bit one,
            // and the first 64-bit one.
            let len = [125usize, 126, 65_535, 65_536][len_ix];
            let op = [
                Opcode::Text,
                Opcode::Binary,
                Opcode::Close,
                Opcode::Ping,
                Opcode::Pong,
            ][op_ix];
            let payload: Vec<u8> = (0..len).map(|i| (i % 251) as u8).collect();
            let mut buf = BytesMut::new();
            encode_ws(&mut buf, op, &payload, key);
            let expected_form = match len {
                0..=125 => len as u8,
                126..=65_535 => 126,
                _ => 127,
            };
            prop_assert_eq!(buf[1] & 0x7f, expected_form);
            prop_assert_eq!(buf[1] & 0x80 != 0, key.is_some());
            let f = decode_ws(&mut buf).unwrap().unwrap();
            prop_assert_eq!(f.opcode, op);
            prop_assert_eq!(f.payload, payload);
            prop_assert!(buf.is_empty());
        }
    }

    proptest! {
        #[test]
        fn byte_at_a_time_delivery_decodes_exactly_once(
            payload in prop::collection::vec(any::<u8>(), 0..300),
            key in any::<Option<[u8; 4]>>(),
        ) {
            // A TCP stream can deliver a frame in arbitrarily small
            // pieces; the decoder must keep answering `Ok(None)` until
            // the very last byte arrives and never consume a partial
            // frame from the buffer.
            let mut wire = BytesMut::new();
            encode_ws(&mut wire, Opcode::Binary, &payload, key);
            let mut buf = BytesMut::new();
            let mut decoded = None;
            for (i, &b) in wire.iter().enumerate() {
                buf.put_u8(b);
                match decode_ws(&mut buf).unwrap() {
                    Some(f) => {
                        prop_assert_eq!(i, wire.len() - 1, "decoded before the last byte");
                        decoded = Some(f);
                    }
                    None => prop_assert!(i < wire.len() - 1, "missing frame at final byte"),
                }
            }
            let f = decoded.expect("frame must decode at the final byte");
            prop_assert_eq!(f.opcode, Opcode::Binary);
            prop_assert_eq!(f.payload, payload);
            prop_assert!(buf.is_empty());
        }
    }
}
