//! Every datagram an endpoint receives lands in exactly one class —
//! frame, malformed or truncated — across a scripted exchange of frames,
//! garbage and an oversized datagram. The classes are the count:
//! `LiveStats` tallies them per transport.

use std::net::UdpSocket;
use std::time::{Duration, Instant};

use watchmen_net::udp::{encode_frame, Recv, UdpEndpoint, HEADER_LEN, MAX_PAYLOAD};

#[test]
fn each_datagram_lands_in_one_class() {
    let a = UdpEndpoint::bind(1, "127.0.0.1:0").unwrap();
    let b = UdpEndpoint::bind(2, "127.0.0.1:0").unwrap();
    let raw = UdpSocket::bind("127.0.0.1:0").unwrap();
    let dest = b.local_addr().unwrap();

    let payload_lens = [5usize, 0, 97];
    for len in payload_lens {
        a.send_to(dest, &vec![0x42; len]).unwrap();
    }
    raw.send_to(b"\xff\xffnot a frame", dest).unwrap();
    let mut lying_length = encode_frame(9, b"abc");
    lying_length.pop();
    raw.send_to(&lying_length, dest).unwrap();
    raw.send_to(&vec![0xab; HEADER_LEN + MAX_PAYLOAD + 50], dest).unwrap();
    // An oversized *payload* is refused before the socket: nothing arrives.
    assert!(a.send_to(dest, &vec![0; MAX_PAYLOAD + 1]).is_err());

    let (mut frames, mut malformed, mut truncated) = (Vec::new(), 0, 0);
    let deadline = Instant::now() + Duration::from_secs(2);
    while frames.len() + malformed + truncated < 6 && Instant::now() < deadline {
        match b.poll_recv().unwrap() {
            Recv::Frame { sender, payload, .. } => frames.push((sender, payload.len())),
            Recv::Malformed { .. } => malformed += 1,
            Recv::Truncated { .. } => truncated += 1,
            Recv::Empty => std::thread::sleep(Duration::from_millis(1)),
        }
    }
    assert_eq!((frames.len(), malformed, truncated), (3, 2, 1));
    frames.sort_unstable();
    assert_eq!(frames, [(1, 0), (1, 5), (1, 97)]);
    assert_eq!(b.poll_recv().unwrap(), Recv::Empty, "the refused payload reached the socket");
}
