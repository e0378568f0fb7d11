//! Mutation robustness of the net codecs: flip, cut and insert bytes in
//! encoded `json` documents and `wsframe` frames.
//!
//! Each mutant must decode to a typed error, to `Ok(None)` when a frame
//! is incomplete (leaving the buffer as it was), or to a value that
//! survives a re-encode. No decode may panic, and none may make a single
//! allocation larger than its codec's cap (`json::MAX_INPUT`,
//! `wsframe::MAX_PAYLOAD`); the frame decoder may not allocate more than
//! the bytes it was given.

use bytes::BytesMut;
use minedig_net::json::{Value, MAX_INPUT};
use minedig_net::wsframe::{decode_ws, encode_ws, Opcode, WsError, MAX_PAYLOAD};
use minedig_primitives::DetRng;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    /// The largest allocation or reallocation this thread has made since
    /// the last [`largest_alloc`] began. The test harness runs tests on
    /// their own threads, so each test sees only its own.
    static LARGEST: Cell<usize> = const { Cell::new(0) };
}

fn note(size: usize) {
    // A thread being torn down has no counter left; its allocations
    // belong to no test.
    let _ = LARGEST.try_with(|n| n.set(n.get().max(size)));
}

/// Tracks the largest allocation on top of the system allocator.
struct TrackingAlloc;

// SAFETY: every method forwards to `System` with the caller's own
// arguments, so `System`'s guarantees carry over unchanged; the tracker
// is a thread-local statistic that publishes no other data.
unsafe impl GlobalAlloc for TrackingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOC: TrackingAlloc = TrackingAlloc;

/// The largest single allocation `f` makes on this thread, and its result.
fn largest_alloc<T>(f: impl FnOnce() -> T) -> (usize, T) {
    LARGEST.with(|n| n.set(0));
    let out = f();
    (LARGEST.with(Cell::get), out)
}

/// Calls `check` on mutants of `base`, with every mutated position drawn
/// from `0..focus` (the header of a large frame; everything for a small
/// document): `rounds` copies with 1–4 bit flips, `rounds` single-byte
/// insertions, every cut up to `focus` and `rounds` cuts anywhere.
fn for_each_mutant(
    base: &[u8],
    focus: usize,
    rng: &mut DetRng,
    rounds: usize,
    mut check: impl FnMut(&[u8]),
) {
    let focus = focus.min(base.len());
    for _ in 0..rounds {
        let mut mutant = base.to_vec();
        for _ in 0..1 + rng.gen_range(4) {
            let i = rng.range_usize(0, focus);
            mutant[i] ^= 1 << rng.gen_range(8);
        }
        check(&mutant);
    }
    for _ in 0..rounds {
        let mut mutant = base.to_vec();
        let i = rng.range_usize(0, focus + 1);
        mutant.insert(i, rng.gen_range(256) as u8);
        check(&mutant);
    }
    for cut in 0..focus {
        check(&base[..cut]);
    }
    for _ in 0..rounds {
        check(&base[..rng.range_usize(0, base.len())]);
    }
}

/// JSON documents in the shapes the protocol sends, plus the number and
/// string forms a mutant can most easily break.
fn documents() -> Vec<Value> {
    let job = Value::parse(
        r#"{"type":"job","job_id":"j12-10-1","blob":"0a0bc8e0b2d605e1b2c3","difficulty":256,"height":10}"#,
    )
    .unwrap();
    let numbers = Value::parse(
        r#"[0,7,-1,18446744073709551615,-9223372036854775808,0.1,-2.5e-7,1e308,-1.7976931348623157e308]"#,
    )
    .unwrap();
    let strings = Value::Arr(vec![
        Value::str("line1\nline2\t\"quoted\" \\slash\u{1}"),
        Value::str("é€ and 😀"),
        Value::str(""),
    ]);
    let nested =
        Value::parse(r#"{"a":[[],{},[null,true,false]],"b":{"c":{"d":[1,[2,[3]]]}}}"#).unwrap();
    vec![job, numbers, strings, nested]
}

#[test]
fn mutated_json_documents_parse_to_an_error_or_a_stable_value() {
    let mut rng = DetRng::seed(0x150f);
    let mut parsed = 0;
    for doc in documents() {
        let text = doc.encode();
        assert_eq!(Value::parse(&text).as_ref(), Ok(&doc), "{text}");
        for_each_mutant(text.as_bytes(), text.len(), &mut rng, 4_000, |bytes| {
            // The protocol checks UTF-8 before it parses.
            let Ok(text) = std::str::from_utf8(bytes) else {
                return;
            };
            let (largest, result) = largest_alloc(|| Value::parse(text));
            assert!(largest <= MAX_INPUT, "{largest} bytes for {text:?}");
            if let Ok(value) = result {
                parsed += 1;
                let again = Value::parse(&value.encode());
                assert_eq!(again.as_ref(), Ok(&value), "mutant {text:?}");
            }
        });
    }
    assert!(parsed > 0, "some mutants must still parse");
}

#[test]
fn json_past_the_cap_is_refused_before_any_allocation() {
    let text = format!("\"{}\"", "a".repeat(MAX_INPUT - 1));
    let (largest, result) = largest_alloc(|| Value::parse(&text));
    assert!(result.is_err());
    assert_eq!(largest, 0, "the size check precedes the parse");
}

/// The frames the wire path sends, one per opcode, masked and unmasked,
/// with payloads at each length-encoding boundary.
fn ws_frames() -> Vec<(Opcode, Vec<u8>, Option<[u8; 4]>)> {
    let mut frames = Vec::new();
    for (i, len) in [0usize, 125, 126, 65_535, 65_536].into_iter().enumerate() {
        let payload: Vec<u8> = (0..len).map(|b| (b % 251) as u8).collect();
        let opcode = [Opcode::Text, Opcode::Binary, Opcode::Ping, Opcode::Pong][i % 4];
        frames.push((opcode, payload.clone(), None));
        frames.push((opcode, payload, Some([0x37, 0xfa, 0x21, 0x3d])));
    }
    frames.push((Opcode::Close, Vec::new(), Some([1, 2, 3, 4])));
    frames
}

/// Decodes `bytes` to the end, checking each outcome: a frame must come
/// back equal from its own encoding, `Ok(None)` and an error leave the
/// buffer as it was, and no call allocates more than the bytes given.
/// Returns the number of frames decoded.
fn drain_ws(bytes: &[u8]) -> usize {
    let mut buf = BytesMut::from(bytes);
    let mut frames = 0;
    loop {
        let before = buf.clone();
        let (largest, result) = largest_alloc(|| decode_ws(&mut buf));
        assert!(largest as u64 <= MAX_PAYLOAD, "{largest} bytes");
        assert!(
            largest <= before.len(),
            "{largest} bytes from {}",
            before.len()
        );
        match result {
            Ok(Some(frame)) => {
                frames += 1;
                assert!(buf.len() < before.len(), "a frame consumes its bytes");
                for mask in [None, Some([9, 8, 7, 6])] {
                    let mut again = BytesMut::new();
                    encode_ws(&mut again, frame.opcode, &frame.payload, mask);
                    assert_eq!(decode_ws(&mut again), Ok(Some(frame.clone())));
                    assert!(again.is_empty());
                }
            }
            Ok(None) | Err(_) => {
                assert_eq!(
                    buf, before,
                    "an incomplete or refused frame is not consumed"
                );
                return frames;
            }
        }
    }
}

#[test]
fn mutated_ws_frames_decode_to_an_error_none_or_a_stable_frame() {
    let mut rng = DetRng::seed(0x3f5a);
    let mut decoded = 0;
    for (opcode, payload, mask) in ws_frames() {
        let mut wire = BytesMut::new();
        encode_ws(&mut wire, opcode, &payload, mask);
        // A second frame behind the first: a mutant may split or merge them.
        encode_ws(&mut wire, Opcode::Text, b"{\"type\":\"get_job\"}", mask);
        assert_eq!(drain_ws(&wire), 2);
        let rounds = if payload.len() > 1_000 { 200 } else { 2_000 };
        for_each_mutant(&wire, 16, &mut rng, rounds, |bytes| {
            decoded += drain_ws(bytes);
        });
        // Every proper prefix of the first frame is incomplete.
        let first = wire.len() - 2 - 4 * usize::from(mask.is_some()) - 18;
        for cut in (0..first).step_by(1 + first / 512) {
            let mut buf = BytesMut::from(&wire[..cut]);
            assert_eq!(decode_ws(&mut buf), Ok(None), "cut at {cut}");
        }
    }
    assert!(decoded > 0, "some mutants must still decode");
}

#[test]
fn ws_lengths_past_the_cap_are_refused_and_short_buffers_wait() {
    for masked in [0u8, 0x80] {
        for (declared, waits) in [(MAX_PAYLOAD + 1, false), (MAX_PAYLOAD, true)] {
            let mut header = vec![0x82, masked | 127];
            header.extend_from_slice(&declared.to_be_bytes());
            let mut buf = BytesMut::from(&header[..]);
            let (largest, result) = largest_alloc(|| decode_ws(&mut buf));
            assert!(largest <= header.len(), "{largest} bytes");
            let refused = Err(WsError::TooLarge(declared));
            assert_eq!(result, if waits { Ok(None) } else { refused });
            assert_eq!(buf.len(), header.len(), "nothing is consumed");
        }
    }
}
