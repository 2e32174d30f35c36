//! A small framed transport over real UDP sockets.
//!
//! The paper's prototype "rel\[ies\] on UDP for faster communication"; this
//! module lets the overlay run over genuine sockets (see [`crate::live`]
//! and the `live_cluster` example), while the experiments use the
//! deterministic [`crate::SimNetwork`].
//!
//! Frames are length-prefixed datagrams tagged with the sender's logical
//! node id, so a receiver can demultiplex players without a lookup table.
//! Every received datagram lands in exactly one of three buckets —
//! accepted ([`Recv::Frame`]), [`Recv::Malformed`] or [`Recv::Truncated`]
//! — so a receive loop can keep draining through garbage, and its caller
//! (the live transport's `LiveStats`) can tell wire corruption from
//! oversized datagrams at a glance.
//!
//! The per-datagram path is held to what the kernel charges: a send
//! frames into a buffer the endpoint reuses; a receive lands in one
//! per-endpoint buffer and is parsed in place, so the only allocation per
//! datagram is the payload `Vec` handed to the caller. [`encode_frame`]
//! and [`parse_frame`] stay as the allocating public reference of the same
//! layout (`tests/frame_fuzz.rs` pins it; a unit test here holds the endpoint
//! to it byte for byte). The reused buffers sit behind `RefCell`s,
//! so an endpoint is `Send` but not `Sync`: one thread drives it.

use std::cell::RefCell;
use std::io;
use std::net::{SocketAddr, UdpSocket};

/// Maximum payload accepted per frame (fits comfortably in one datagram).
pub const MAX_PAYLOAD: usize = 1400;

/// Bytes of framing before the payload: magic (2) + node id (4) +
/// payload length (2).
pub const HEADER_LEN: usize = 8;

/// Receive buffer size: the largest legal frame plus one spare byte. A
/// `recv_from` that fills the *entire* buffer can only be a datagram the
/// kernel truncated to fit — no legal frame is that long — which is how
/// oversized datagrams are told apart from merely malformed ones.
const RECV_BUF: usize = HEADER_LEN + MAX_PAYLOAD + 1;

/// Magic bytes marking a Watchmen frame.
const MAGIC: u16 = 0x574d; // "WM"

/// The typed outcome of one receive attempt: exactly one of accepted,
/// malformed, truncated, or nothing pending. Drain loops match on this
/// and only stop at [`Recv::Empty`] — a garbage datagram no longer looks
/// like an empty queue (the bug the untyped `Option` return used to
/// have).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Recv {
    /// A well-formed frame: sender's logical id, source address, payload.
    Frame {
        /// The sender's logical node id from the frame header.
        sender: u32,
        /// The datagram's source socket address.
        from: SocketAddr,
        /// The frame payload.
        payload: Vec<u8>,
    },
    /// A datagram that fit the buffer but failed framing (bad magic,
    /// short header, or a length field that disagrees with the datagram).
    Malformed {
        /// Where the garbage came from.
        from: SocketAddr,
    },
    /// A datagram larger than any legal frame, truncated by the kernel.
    Truncated {
        /// Where the oversized datagram came from.
        from: SocketAddr,
    },
    /// No datagram pending (or the blocking timeout expired).
    Empty,
}

/// A UDP endpoint bound to a local address, sending and receiving framed
/// payloads tagged with logical node ids.
///
/// # Examples
///
/// ```no_run
/// use watchmen_net::udp::UdpEndpoint;
///
/// # fn main() -> std::io::Result<()> {
/// let a = UdpEndpoint::bind(0, "127.0.0.1:0")?;
/// let b = UdpEndpoint::bind(1, "127.0.0.1:0")?;
/// a.send_to(b.local_addr()?, b"hello")?;
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct UdpEndpoint {
    node_id: u32,
    socket: UdpSocket,
    /// The outgoing frame is assembled here; it grows to the largest frame
    /// sent and keeps that capacity.
    send_buf: RefCell<Vec<u8>>,
    /// Every datagram is received into, and parsed out of, this buffer.
    recv_buf: RefCell<Box<[u8; RECV_BUF]>>,
}

impl UdpEndpoint {
    /// Binds a socket for logical node `node_id` at `addr` (use port 0 for
    /// an ephemeral port).
    ///
    /// # Errors
    ///
    /// Propagates socket binding failures.
    pub fn bind(node_id: u32, addr: &str) -> io::Result<Self> {
        let socket = UdpSocket::bind(addr)?;
        socket.set_nonblocking(true)?;
        Ok(UdpEndpoint {
            node_id,
            socket,
            send_buf: RefCell::new(Vec::new()),
            recv_buf: RefCell::new(Box::new([0u8; RECV_BUF])),
        })
    }

    /// The bound local address.
    ///
    /// # Errors
    ///
    /// Propagates socket errors.
    pub fn local_addr(&self) -> io::Result<SocketAddr> {
        self.socket.local_addr()
    }

    /// This endpoint's logical node id.
    #[must_use]
    pub fn node_id(&self) -> u32 {
        self.node_id
    }

    /// Sends `payload` to `dest`, framed with this node's id.
    ///
    /// # Errors
    ///
    /// Returns `InvalidInput` if the payload exceeds [`MAX_PAYLOAD`];
    /// propagates socket errors.
    pub fn send_to(&self, dest: SocketAddr, payload: &[u8]) -> io::Result<()> {
        if payload.len() > MAX_PAYLOAD {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                format!("payload {} exceeds {MAX_PAYLOAD}", payload.len()),
            ));
        }
        let mut frame = self.send_buf.borrow_mut();
        frame.clear();
        write_frame(&mut frame, self.node_id, payload);
        self.socket.send_to(&frame, dest)?;
        Ok(())
    }

    /// One nonblocking receive attempt, classified. This is the primitive
    /// the batched drain loops are built on: call it until it returns
    /// [`Recv::Empty`] and the socket queue is truly drained, whatever
    /// garbage was interleaved.
    ///
    /// # Errors
    ///
    /// Propagates socket errors other than `WouldBlock`/`TimedOut`.
    pub fn poll_recv(&self) -> io::Result<Recv> {
        let mut buf = self.recv_buf.borrow_mut();
        match self.socket.recv_from(&mut buf[..]) {
            Ok((len, from)) => {
                if len == RECV_BUF {
                    // The kernel filled the whole buffer: the datagram was
                    // at least one byte longer than any legal frame and
                    // its tail is gone. Distinct from malformed — this is
                    // an MTU/attacker signal, not wire corruption.
                    Ok(Recv::Truncated { from })
                } else {
                    Ok(match split_frame(&buf[..len]) {
                        Some((sender, payload)) => {
                            Recv::Frame { sender, from, payload: payload.to_vec() }
                        }
                        None => Recv::Malformed { from },
                    })
                }
            }
            Err(e)
                if e.kind() == io::ErrorKind::WouldBlock || e.kind() == io::ErrorKind::TimedOut =>
            {
                Ok(Recv::Empty)
            }
            Err(e) => Err(e),
        }
    }

    /// Receives one well-formed frame if available, returning the
    /// sender's logical node id, socket address and payload. Malformed or
    /// truncated datagrams are skipped, so `Ok(None)` means
    /// the queue is truly empty — a `while let Some(..)` drain no longer
    /// stalls on one garbage datagram.
    ///
    /// # Errors
    ///
    /// Propagates socket errors other than `WouldBlock`.
    pub fn try_recv(&self) -> io::Result<Option<(u32, SocketAddr, Vec<u8>)>> {
        loop {
            match self.poll_recv()? {
                Recv::Frame { sender, from, payload } => return Ok(Some((sender, from, payload))),
                Recv::Malformed { .. } | Recv::Truncated { .. } => {}
                Recv::Empty => return Ok(None),
            }
        }
    }
}

/// Encodes a frame: magic, sender id, payload length, payload. The exact
/// byte layout is pinned by a golden test in `tests/frame_fuzz.rs`.
#[must_use]
pub fn encode_frame(node_id: u32, payload: &[u8]) -> Vec<u8> {
    let mut frame = Vec::with_capacity(HEADER_LEN + payload.len());
    write_frame(&mut frame, node_id, payload);
    frame
}

/// Appends one frame to `frame`: the layout, written once for
/// [`encode_frame`] and [`UdpEndpoint::send_to`].
fn write_frame(frame: &mut Vec<u8>, node_id: u32, payload: &[u8]) {
    frame.extend_from_slice(&MAGIC.to_be_bytes());
    frame.extend_from_slice(&node_id.to_be_bytes());
    frame.extend_from_slice(&(payload.len() as u16).to_be_bytes());
    frame.extend_from_slice(payload);
}

/// Parses a frame, returning the sender id and payload, or `None` if
/// malformed. Never panics, whatever the input bytes.
#[must_use]
pub fn parse_frame(data: &[u8]) -> Option<(u32, Vec<u8>)> {
    split_frame(data).map(|(id, payload)| (id, payload.to_vec()))
}

/// The framing check itself, borrowing the payload out of `data`: what
/// [`parse_frame`] and [`UdpEndpoint::poll_recv`] both classify with.
fn split_frame(data: &[u8]) -> Option<(u32, &[u8])> {
    let ([m0, m1, i0, i1, i2, i3, l0, l1], payload) = data.split_first_chunk::<HEADER_LEN>()?;
    if u16::from_be_bytes([*m0, *m1]) != MAGIC {
        return None;
    }
    let len = u16::from_be_bytes([*l0, *l1]) as usize;
    (payload.len() == len).then_some((u32::from_be_bytes([*i0, *i1, *i2, *i3]), payload))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::{Duration, Instant};

    /// Waits up to two seconds for one well-formed frame: loopback
    /// delivery is fast but not synchronous with `send_to`.
    fn recv_soon(endpoint: &UdpEndpoint) -> (u32, SocketAddr, Vec<u8>) {
        let deadline = Instant::now() + Duration::from_secs(2);
        loop {
            if let Some(frame) = endpoint.try_recv().unwrap() {
                return frame;
            }
            assert!(Instant::now() < deadline, "no frame within two seconds");
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    #[test]
    fn roundtrip_over_loopback() {
        let a = UdpEndpoint::bind(7, "127.0.0.1:0").unwrap();
        let b = UdpEndpoint::bind(9, "127.0.0.1:0").unwrap();
        a.send_to(b.local_addr().unwrap(), b"state update").unwrap();
        let (id, _from, payload) = recv_soon(&b);
        assert_eq!(id, 7);
        assert_eq!(&payload[..], b"state update");
        assert_eq!(b.node_id(), 9);
    }

    #[test]
    fn try_recv_empty_is_none() {
        let a = UdpEndpoint::bind(1, "127.0.0.1:0").unwrap();
        assert!(a.try_recv().unwrap().is_none());
    }

    #[test]
    fn oversized_payload_rejected() {
        let a = UdpEndpoint::bind(1, "127.0.0.1:0").unwrap();
        let big = vec![0u8; MAX_PAYLOAD + 1];
        let err = a.send_to("127.0.0.1:9".parse().unwrap(), &big).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidInput);
    }

    #[test]
    fn malformed_frames_discarded() {
        assert!(parse_frame(b"junk").is_none());
        assert!(parse_frame(&[0u8; 8]).is_none());
        // Correct magic and id 1, but the length field claims 10 bytes
        // and the frame provides 2.
        assert!(parse_frame(&[0x57, 0x4d, 0, 0, 0, 1, 0, 10, b'x', b'y']).is_none());
    }

    #[test]
    fn empty_payload_roundtrip() {
        let a = UdpEndpoint::bind(2, "127.0.0.1:0").unwrap();
        let b = UdpEndpoint::bind(3, "127.0.0.1:0").unwrap();
        a.send_to(b.local_addr().unwrap(), b"").unwrap();
        let got = recv_soon(&b);
        assert!(got.2.is_empty());
    }

    /// The receive-path drain bug: a garbage datagram between two valid
    /// frames used to return `Ok(None)` from `try_recv`, ending a
    /// `while let Some(..)` drain with a frame still queued. The drain
    /// must now skip garbage and only stop when the queue is empty.
    #[test]
    fn garbage_between_frames_does_not_stall_drain() {
        let a = UdpEndpoint::bind(4, "127.0.0.1:0").unwrap();
        let b = UdpEndpoint::bind(5, "127.0.0.1:0").unwrap();
        let dest = b.local_addr().unwrap();
        let raw = UdpSocket::bind("127.0.0.1:0").unwrap();
        a.send_to(dest, b"first").unwrap();
        raw.send_to(b"\xff\xffgarbage", dest).unwrap();
        a.send_to(dest, b"second").unwrap();

        let mut got = Vec::new();
        let deadline = Instant::now() + Duration::from_secs(2);
        while got.len() < 2 && Instant::now() < deadline {
            // The production pattern: drain everything pending this tick.
            while let Some((id, _from, payload)) = b.try_recv().unwrap() {
                got.push((id, payload));
            }
        }
        assert_eq!(got.len(), 2, "both frames must survive the interleaved garbage");
        assert!(got.iter().all(|(id, _)| *id == 4));
        let payloads: Vec<&[u8]> = got.iter().map(|(_, p)| p.as_slice()).collect();
        assert!(payloads.contains(&b"first".as_slice()));
        assert!(payloads.contains(&b"second".as_slice()));
    }

    /// Datagrams longer than any legal frame are classified as truncated,
    /// not malformed: the kernel cut them to the buffer, so their framing
    /// was never inspectable.
    #[test]
    fn oversized_datagram_classified_truncated() {
        let b = UdpEndpoint::bind(10, "127.0.0.1:0").unwrap();
        let dest = b.local_addr().unwrap();
        let raw = UdpSocket::bind("127.0.0.1:0").unwrap();
        let oversized = vec![0xab; RECV_BUF + 100];
        raw.send_to(&oversized, dest).unwrap();
        let deadline = Instant::now() + Duration::from_secs(2);
        loop {
            match b.poll_recv().unwrap() {
                Recv::Truncated { .. } => break,
                Recv::Empty => {
                    assert!(Instant::now() < deadline, "truncated datagram never classified");
                    std::thread::sleep(Duration::from_millis(1));
                }
                other => panic!("expected Truncated, got {other:?}"),
            }
        }
        // A max-size *legal* frame still parses: truncation detection must
        // not eat the boundary case.
        let a = UdpEndpoint::bind(11, "127.0.0.1:0").unwrap();
        let max = vec![0x7u8; MAX_PAYLOAD];
        a.send_to(dest, &max).unwrap();
        let (id, _from, payload) = recv_soon(&b);
        assert_eq!(id, 11);
        assert_eq!(payload.len(), MAX_PAYLOAD);
    }

    /// What `send_to` puts on the wire is `encode_frame`'s output, byte for
    /// byte, whatever the reused buffer held before: a raw socket is the
    /// witness.
    #[test]
    fn send_to_puts_encode_frame_bytes_on_the_wire() {
        let a = UdpEndpoint::bind(0x0a0b_0c0d, "127.0.0.1:0").unwrap();
        let raw = UdpSocket::bind("127.0.0.1:0").unwrap();
        raw.set_read_timeout(Some(Duration::from_secs(2))).unwrap();
        let dest = raw.local_addr().unwrap();
        let mut buf = [0u8; RECV_BUF + 64];
        // Long, short, long again: a stale tail must never leak.
        for len in [MAX_PAYLOAD, 0, 97, 1, MAX_PAYLOAD, 97] {
            let payload: Vec<u8> = (0..len).map(|i| (i * 31 + len) as u8).collect();
            a.send_to(dest, &payload).unwrap();
            let (got, _) = raw.recv_from(&mut buf).unwrap();
            assert_eq!(&buf[..got], &encode_frame(0x0a0b_0c0d, &payload)[..], "payload len {len}");
        }
    }
}
