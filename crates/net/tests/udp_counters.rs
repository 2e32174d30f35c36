//! The five `udp_*` counters on the global registry, across a scripted
//! exchange of frames, garbage and an oversized datagram.
//!
//! The counters are process-wide, so this file holds exactly one test: a
//! second one running beside it would move the deltas.

use std::net::UdpSocket;
use std::time::{Duration, Instant};

use watchmen_net::udp::{encode_frame, parse_frame, Recv, UdpEndpoint, HEADER_LEN, MAX_PAYLOAD};

const NAMES: [&str; 5] = [
    "udp_frames_sent_total",
    "udp_bytes_sent_total",
    "udp_frames_received_total",
    "udp_frames_malformed_total",
    "udp_frames_truncated_total",
];

fn read_counters() -> [u64; 5] {
    let snapshot = watchmen_telemetry::global().snapshot();
    NAMES.map(|name| snapshot.counter_sum(name))
}

#[test]
fn counters_advance_by_what_crossed_the_socket() {
    let a = UdpEndpoint::bind(1, "127.0.0.1:0").unwrap();
    let b = UdpEndpoint::bind(2, "127.0.0.1:0").unwrap();
    let raw = UdpSocket::bind("127.0.0.1:0").unwrap();
    let dest = b.local_addr().unwrap();
    let before = read_counters();

    let payload_lens = [5usize, 0, 97];
    for len in payload_lens {
        a.send_to(dest, &vec![0x42; len]).unwrap();
    }
    raw.send_to(b"\xff\xffnot a frame", dest).unwrap();
    let mut lying_length = encode_frame(9, b"abc");
    lying_length.pop();
    raw.send_to(&lying_length, dest).unwrap();
    raw.send_to(&vec![0xab; HEADER_LEN + MAX_PAYLOAD + 50], dest).unwrap();
    // An oversized *payload* is refused before the socket and counts nowhere.
    assert!(a.send_to(dest, &vec![0; MAX_PAYLOAD + 1]).is_err());

    let (mut frames, mut malformed, mut truncated) = (0, 0, 0);
    let deadline = Instant::now() + Duration::from_secs(2);
    while frames + malformed + truncated < 6 && Instant::now() < deadline {
        match b.poll_recv().unwrap() {
            Recv::Frame { .. } => frames += 1,
            Recv::Malformed { .. } => malformed += 1,
            Recv::Truncated { .. } => truncated += 1,
            Recv::Empty => std::thread::sleep(Duration::from_millis(1)),
        }
    }
    assert_eq!((frames, malformed, truncated), (3, 2, 1));

    let after = read_counters();
    let delta: Vec<u64> = after.iter().zip(before).map(|(a, b)| a - b).collect();
    let bytes: usize = payload_lens.iter().map(|len| HEADER_LEN + len).sum();
    assert_eq!(delta, [3, bytes as u64, 3, 2, 1], "{NAMES:?}");

    // The public parser counts on the same two names.
    assert!(parse_frame(&encode_frame(7, b"ok")).is_some());
    assert!(parse_frame(b"junk").is_none());
    let parsed: Vec<u64> = read_counters().iter().zip(after).map(|(a, b)| a - b).collect();
    assert_eq!(parsed, [0, 0, 1, 1, 0], "{NAMES:?}");
}
