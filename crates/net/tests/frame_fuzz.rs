//! Property/fuzz-style coverage for the UDP framing and the wire codec.
//!
//! The receive path's contract: whatever bytes arrive, classification
//! never panics and lands each datagram in exactly one of
//! {accepted, malformed, truncated}. The golden tests pin the header
//! layout so a codec change cannot silently break cross-version
//! interop.

use std::net::UdpSocket;
use std::time::{Duration, Instant};

use watchmen_crypto::rng::Xoshiro256;
use watchmen_net::udp::{encode_frame, parse_frame, Recv, UdpEndpoint, HEADER_LEN, MAX_PAYLOAD};
use watchmen_net::wire::{GetBytes, PutBytes};

/// The header layout, pinned byte for byte: magic "WM", big-endian node
/// id, big-endian payload length, then the payload.
#[test]
fn golden_header_layout() {
    let frame = encode_frame(0x0102_0304, b"abc");
    assert_eq!(
        frame,
        vec![0x57, 0x4d, 0x01, 0x02, 0x03, 0x04, 0x00, 0x03, b'a', b'b', b'c'],
        "frame header layout changed — this breaks wire interop"
    );
    assert_eq!(frame.len(), HEADER_LEN + 3);
    let (id, payload) = parse_frame(&frame).expect("golden frame parses");
    assert_eq!(id, 0x0102_0304);
    assert_eq!(payload, b"abc");
}

#[test]
fn golden_wire_primitives_are_big_endian() {
    let mut buf = Vec::new();
    buf.put_u16(0x1234);
    buf.put_u32(0xdead_beef);
    buf.put_slice(b"x");
    assert_eq!(buf, vec![0x12, 0x34, 0xde, 0xad, 0xbe, 0xef, b'x']);
}

/// Round-trips randomized sequences of every put/get primitive.
#[test]
fn wire_codec_roundtrips_random_sequences() {
    let mut rng = Xoshiro256::new(0xc0dec);
    for _ in 0..500 {
        let values: Vec<u64> = (0..rng.next_range(12) + 1).map(|_| rng.next_u64()).collect();
        let mut buf = Vec::new();
        for &v in &values {
            if v % 2 == 0 {
                buf.put_u16(v as u16);
            } else {
                buf.put_u32(v as u32);
            }
        }
        let mut cursor: &[u8] = &buf;
        for &v in &values {
            if v % 2 == 0 {
                assert_eq!(cursor.get_u16(), v as u16);
            } else {
                assert_eq!(cursor.get_u32(), v as u32);
            }
        }
        assert!(cursor.is_empty(), "codec must consume exactly what it wrote");
    }
}

/// Arbitrary mutations of valid frames never panic the parser and always
/// classify as accepted or malformed; an unmutated frame must round-trip.
#[test]
fn mutated_frames_never_panic_and_classify() {
    let mut rng = Xoshiro256::new(0xf422);
    for iter in 0..4000 {
        let payload_len = rng.next_range(65) as usize;
        let payload: Vec<u8> = (0..payload_len).map(|_| rng.next_u64() as u8).collect();
        let node = rng.next_u64() as u32;
        let mut frame = encode_frame(node, &payload);

        let mutations = rng.next_range(5);
        for _ in 0..mutations {
            match rng.next_range(4) {
                // Flip a random byte.
                0 if !frame.is_empty() => {
                    let i = rng.next_range(frame.len() as u64) as usize;
                    frame[i] ^= (rng.next_u64() as u8) | 1;
                }
                // Truncate the tail.
                1 if !frame.is_empty() => {
                    let keep = rng.next_range(frame.len() as u64) as usize;
                    frame.truncate(keep);
                }
                // Append junk.
                2 => {
                    let extra = rng.next_range(9) + 1;
                    frame.extend((0..extra).map(|_| rng.next_u64() as u8));
                }
                // Drop a prefix.
                _ if !frame.is_empty() => {
                    let drop = rng.next_range(frame.len() as u64) as usize;
                    frame.drain(..drop);
                }
                _ => {}
            }
        }

        // The contract under test: no panic, and a total classification.
        let parsed = parse_frame(&frame);
        if mutations == 0 {
            let (id, body) = parsed.expect("unmutated frame must parse");
            assert_eq!(id, node, "iter {iter}");
            assert_eq!(body, payload, "iter {iter}");
        }
        // `parsed` is Some (accepted) or None (malformed): exactly one
        // bucket, by construction — the assertion is that we got here.
    }
}

/// Every datagram put on the wire — valid, garbage, or oversized — is
/// drained and lands in exactly one classification bucket.
#[test]
fn socket_drain_classifies_every_datagram_exactly_once() {
    let rx = UdpEndpoint::bind(1, "127.0.0.1:0").unwrap();
    let dest = rx.local_addr().unwrap();
    let raw = UdpSocket::bind("127.0.0.1:0").unwrap();
    let mut rng = Xoshiro256::new(0x50c);

    let mut sent_valid = 0u64;
    let mut sent_garbage = 0u64;
    let mut sent_oversized = 0u64;
    const TOTAL: u64 = 60;
    for _ in 0..TOTAL {
        match rng.next_range(3) {
            0 => {
                let payload: Vec<u8> =
                    (0..rng.next_range(32)).map(|_| rng.next_u64() as u8).collect();
                raw.send_to(&encode_frame(7, &payload), dest).unwrap();
                sent_valid += 1;
            }
            1 => {
                // Garbage that still fits the buffer.
                let junk: Vec<u8> =
                    (0..rng.next_range(64) + 1).map(|_| rng.next_u64() as u8).collect();
                // Avoid accidentally forging a valid frame: break the magic.
                let mut junk = junk;
                if junk.len() >= 2 {
                    junk[0] = 0x00;
                }
                raw.send_to(&junk, dest).unwrap();
                sent_garbage += 1;
            }
            _ => {
                let big = vec![0x11u8; HEADER_LEN + MAX_PAYLOAD + 50];
                raw.send_to(&big, dest).unwrap();
                sent_oversized += 1;
            }
        }
    }

    let (mut frames, mut malformed, mut truncated) = (0u64, 0u64, 0u64);
    let deadline = Instant::now() + Duration::from_secs(5);
    while frames + malformed + truncated < TOTAL && Instant::now() < deadline {
        match rx.poll_recv().unwrap() {
            Recv::Frame { sender, .. } => {
                assert_eq!(sender, 7);
                frames += 1;
            }
            Recv::Malformed { .. } => malformed += 1,
            Recv::Truncated { .. } => truncated += 1,
            Recv::Empty => std::thread::sleep(Duration::from_millis(1)),
        }
    }
    // Loopback UDP can in principle drop under buffer pressure; with 60
    // small datagrams it does not, and the classification must be exact.
    assert_eq!(frames, sent_valid);
    assert_eq!(malformed, sent_garbage);
    assert_eq!(truncated, sent_oversized);
}
