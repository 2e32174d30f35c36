//! Live transport: nonblocking batched UDP for a sans-io protocol core.
//!
//! [`LiveTransport`] is the wire-side half of a live deployment. It owns
//! a [`UdpEndpoint`] and gives the driver loop exactly three verbs per
//! tick:
//!
//! 1. [`LiveTransport::queue`] — enqueue an outbound payload for a peer
//!    (bounded queue; overflow drops the *oldest* entry, since the
//!    protocol's reliable control plane retransmits anything that
//!    mattered and fresher state supersedes staler state).
//! 2. [`LiveTransport::pump`] — one tick's worth of I/O: drain **all**
//!    pending datagrams (skipping and counting malformed/truncated ones),
//!    heartbeat the idle peers when the cadence is due, then flush the
//!    send queue until the socket pushes back.
//! 3. [`LiveTransport::stats`] — the transport-level counters.
//!
//! The transport's protocol is clock-free: "time" is the tick counter
//! advanced by each [`LiveTransport::pump`] call, so the same code is
//! exact under a test harness that pumps in a loop and under a real
//! driver that pumps once per frame. Heartbeats are empty-payload frames
//! — `watchmen-core` envelopes are never empty, so the two planes cannot
//! be confused — and serve address learning and liveness only; protocol
//! reliability stays in the core's ack/retransmit machinery.
//!
//! **Updates are the heartbeat** (the paper's §VI rule): any frame, payload
//! or heartbeat, refreshes the receiver's view of the sender's address and
//! liveness, so the cadence heartbeat goes only to peers this transport
//! has sent *nothing* for [`LiveConfig::heartbeat_every`] ticks. A
//! receiver cannot tell the difference — it never looked at what kind of
//! frame refreshed a peer — except that a sender's silence can now last
//! up to `2 * heartbeat_every - 1` ticks (payload just after one cadence
//! tick, nothing until the cadence tick after next) instead of
//! `heartbeat_every`. The first cadence tick reaches every registered
//! peer, and [`LiveTransport::beat`] is unconditional.
//!
//! Reconnect is implicit: every incoming frame refreshes the sender's
//! socket address, so a peer that rebinds (new NAT mapping, process
//! restart behind the same logical id) is followed as soon as it speaks.
//!
//! As a [`Transport`] it is one slot, its own id, and a step pumps twice:
//! `deliver_until` to receive and `flush` to send. The flush's pump
//! drains the socket too; the next `deliver_until` hands those frames
//! over first, so none is lost between steps.

use std::collections::{BTreeMap, VecDeque};
use std::io;
use std::net::SocketAddr;

use crate::simnet::{Delivery, NodeId};
use crate::udp::{Recv, UdpEndpoint};
use crate::Transport;

/// Tuning knobs for a [`LiveTransport`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LiveConfig {
    /// Outbound queue capacity in payloads; beyond it the oldest queued
    /// payload is dropped (and counted).
    pub max_queue: usize,
    /// Ticks between cadence heartbeats: on every such tick each peer
    /// that was sent nothing for this many ticks gets one. Zero means no
    /// cadence heartbeats at all ([`LiveTransport::beat`] still works).
    pub heartbeat_every: u64,
}

impl Default for LiveConfig {
    fn default() -> Self {
        // A 16-player frame emits tens of payloads; 1024 rides out a
        // multi-frame socket stall without unbounded memory.
        LiveConfig { max_queue: 1024, heartbeat_every: 20 }
    }
}

/// Transport-level counters, separate from the protocol's own telemetry.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LiveStats {
    /// Well-formed payload frames handed to the driver.
    pub frames_in: u64,
    /// Payload frames put on the wire.
    pub frames_out: u64,
    /// Heartbeats sent to peers.
    pub heartbeats_sent: u64,
    /// Heartbeats received from peers.
    pub heartbeats_received: u64,
    /// Malformed datagrams skipped while draining.
    pub malformed: u64,
    /// Truncated (oversized) datagrams skipped while draining.
    pub truncated: u64,
    /// Outbound payloads dropped because the bounded queue overflowed.
    pub queue_dropped: u64,
    /// Outbound payloads dropped because the peer id had no known
    /// address yet.
    pub unroutable_dropped: u64,
}

/// One tick's inbound result from [`LiveTransport::pump`]: the payload
/// frames that arrived, in receive order.
pub type Inbound = Vec<(u32, Vec<u8>)>;

/// What the transport knows about one peer. A tick of `None` is "never".
#[derive(Debug, Clone, Copy)]
struct Peer {
    addr: SocketAddr,
    last_heard: Option<u64>,
    last_sent: Option<u64>,
}

/// A nonblocking, batched UDP transport for one logical node. See the
/// module docs for the tick contract.
#[derive(Debug)]
pub struct LiveTransport {
    endpoint: UdpEndpoint,
    config: LiveConfig,
    peers: BTreeMap<u32, Peer>,
    queue: VecDeque<(u32, Vec<u8>)>,
    ticks: u64,
    stats: LiveStats,
    /// Payload frames the last `flush` drained, not yet handed over.
    carried: Inbound,
}

impl LiveTransport {
    /// Binds a transport for logical node `node_id` at `addr` (port 0 for
    /// ephemeral) with default knobs.
    ///
    /// # Errors
    ///
    /// Propagates socket binding failures.
    pub fn bind(node_id: u32, addr: &str) -> io::Result<Self> {
        Ok(LiveTransport {
            endpoint: UdpEndpoint::bind(node_id, addr)?,
            config: LiveConfig::default(),
            peers: BTreeMap::new(),
            queue: VecDeque::new(),
            ticks: 0,
            stats: LiveStats::default(),
            carried: Inbound::new(),
        })
    }

    /// Replaces the tuning knobs.
    #[must_use]
    pub fn with_config(mut self, config: LiveConfig) -> Self {
        self.config = config;
        self
    }

    /// This transport's logical node id.
    #[must_use]
    pub fn node_id(&self) -> u32 {
        self.endpoint.node_id()
    }

    /// The bound local address.
    ///
    /// # Errors
    ///
    /// Propagates socket errors.
    pub fn local_addr(&self) -> io::Result<SocketAddr> {
        self.endpoint.local_addr()
    }

    /// Registers (or re-registers) a peer's address. Incoming frames from
    /// the peer keep this fresh automatically afterwards.
    pub fn register_peer(&mut self, id: u32, addr: SocketAddr) {
        self.peers.entry(id).and_modify(|p| p.addr = addr).or_insert(Peer {
            addr,
            last_heard: None,
            last_sent: None,
        });
    }

    /// Peers heard from (heartbeat or payload) within the last `within`
    /// ticks.
    #[must_use]
    pub fn live_peers(&self, within: u64) -> usize {
        let floor = self.ticks.saturating_sub(within);
        self.peers.values().filter(|p| p.last_heard.is_some_and(|t| t >= floor)).count()
    }

    /// Ticks pumped so far.
    #[must_use]
    pub fn ticks(&self) -> u64 {
        self.ticks
    }

    /// Transport counters.
    #[must_use]
    pub fn stats(&self) -> LiveStats {
        self.stats
    }

    /// Outbound payloads still waiting for socket room.
    #[must_use]
    pub fn queued(&self) -> usize {
        self.queue.len()
    }

    /// Enqueues `bytes` for peer `to`. Unknown peers drop immediately
    /// (counted — the core will retransmit control traffic once the peer
    /// is heard); a full queue drops its oldest entry first.
    pub fn queue(&mut self, to: u32, bytes: Vec<u8>) {
        if !self.peers.contains_key(&to) {
            self.stats.unroutable_dropped += 1;
            return;
        }
        if self.queue.len() >= self.config.max_queue && self.queue.pop_front().is_some() {
            self.stats.queue_dropped += 1;
        }
        self.queue.push_back((to, bytes));
    }

    /// One tick of transport I/O: advance the tick counter, drain every
    /// pending datagram, heartbeat the idle peers if the cadence is due,
    /// flush the send queue until the socket would block. Returns the
    /// payload frames that arrived.
    ///
    /// # Errors
    ///
    /// Propagates socket errors other than `WouldBlock`.
    pub fn pump(&mut self) -> io::Result<Inbound> {
        self.ticks += 1;
        let inbound = self.drain()?;
        let every = self.config.heartbeat_every;
        // Cadence ticks are 1, every + 1, 2 * every + 1, …
        if every == 1 || (every > 1 && self.ticks % every == 1) {
            self.heartbeat(every)?;
        }
        self.flush_queue()?;
        Ok(inbound)
    }

    /// Sends one heartbeat (empty-payload frame) to every registered
    /// peer, immediately, regardless of cadence.
    ///
    /// # Errors
    ///
    /// Propagates socket errors other than `WouldBlock`.
    pub fn beat(&mut self) -> io::Result<()> {
        self.heartbeat(0)
    }

    /// Heartbeats every peer that was sent nothing — payload or heartbeat
    /// — for at least `idle_for` ticks; a peer never sent to is always
    /// due.
    fn heartbeat(&mut self, idle_for: u64) -> io::Result<()> {
        let now = self.ticks;
        for peer in self.peers.values_mut() {
            if peer.last_sent.is_some_and(|t| now - t < idle_for) {
                continue;
            }
            match self.endpoint.send_to(peer.addr, b"") {
                Ok(()) => {
                    peer.last_sent = Some(now);
                    self.stats.heartbeats_sent += 1;
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => {}
                Err(e) => return Err(e),
            }
        }
        Ok(())
    }

    /// Drains every pending datagram: payload frames are returned,
    /// heartbeats refresh liveness, garbage is counted and skipped. Every
    /// frame (heartbeat or payload) re-learns the sender's address.
    fn drain(&mut self) -> io::Result<Inbound> {
        let mut inbound = Vec::new();
        let heard = Some(self.ticks);
        loop {
            match self.endpoint.poll_recv()? {
                Recv::Frame { sender, from, payload } => {
                    // One lookup per frame; only a sender never seen
                    // before grows the table.
                    match self.peers.get_mut(&sender) {
                        Some(peer) => {
                            peer.addr = from;
                            peer.last_heard = heard;
                        }
                        None => {
                            let peer = Peer { addr: from, last_heard: heard, last_sent: None };
                            self.peers.insert(sender, peer);
                        }
                    }
                    if payload.is_empty() {
                        self.stats.heartbeats_received += 1;
                    } else {
                        self.stats.frames_in += 1;
                        inbound.push((sender, payload));
                    }
                }
                Recv::Malformed { .. } => self.stats.malformed += 1,
                Recv::Truncated { .. } => self.stats.truncated += 1,
                Recv::Empty => return Ok(inbound),
            }
        }
    }

    /// Flushes the send queue until it is empty or the socket pushes
    /// back; what remains stays queued for the next tick.
    fn flush_queue(&mut self) -> io::Result<()> {
        while let Some((to, bytes)) = self.queue.front() {
            // The address is re-resolved at send time: the peer may have
            // rebound since the payload was queued.
            let Some(peer) = self.peers.get_mut(to) else {
                self.stats.unroutable_dropped += 1;
                self.queue.pop_front();
                continue;
            };
            match self.endpoint.send_to(peer.addr, bytes) {
                Ok(()) => {
                    peer.last_sent = Some(self.ticks);
                    self.stats.frames_out += 1;
                    self.queue.pop_front();
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return Ok(()),
                Err(e) => return Err(e),
            }
        }
        Ok(())
    }
}

/// Slot `node_id` is the only one up (`slots()` is `node_id + 1`). `t_ms`
/// only stamps deliveries. `send` panics unless `from` is `node_id`, and
/// a pump that fails panics.
impl Transport for LiveTransport {
    fn slots(&self) -> usize {
        self.node_id() as usize + 1
    }

    fn is_up(&self, slot: NodeId) -> bool {
        slot == self.node_id() as usize
    }

    fn send(&mut self, from: NodeId, to: NodeId, bytes: Vec<u8>) {
        assert_eq!(from, self.node_id() as usize, "a live transport sends as its own id only");
        self.queue(u32::try_from(to).expect("peer ids are u32"), bytes);
    }

    fn deliver_until(&mut self, t_ms: f64) -> Vec<Delivery<Vec<u8>>> {
        self.flush(); // one pump; its frames queue behind the carried ones
        let to = self.node_id() as usize;
        let frames = std::mem::take(&mut self.carried).into_iter();
        let delivery = |(from, payload): (u32, Vec<u8>)| Delivery {
            from: from as usize,
            to,
            sent_ms: t_ms,
            deliver_ms: t_ms,
            bytes: payload.len(),
            payload,
        };
        frames.map(delivery).collect()
    }

    fn flush(&mut self) {
        let mut drained = self.pump().expect("live transport pump");
        self.carried.append(&mut drained);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::{Duration, Instant};

    fn pair() -> (LiveTransport, LiveTransport) {
        let mut a = LiveTransport::bind(0, "127.0.0.1:0").unwrap();
        let mut b = LiveTransport::bind(1, "127.0.0.1:0").unwrap();
        let (aa, ba) = (a.local_addr().unwrap(), b.local_addr().unwrap());
        a.register_peer(1, ba);
        b.register_peer(0, aa);
        (a, b)
    }

    /// Pumps `rx` until `want` payload frames arrived or two seconds pass.
    fn pump_until(rx: &mut LiveTransport, want: usize) -> Inbound {
        let deadline = Instant::now() + Duration::from_secs(2);
        let mut got = Vec::new();
        while got.len() < want && Instant::now() < deadline {
            got.extend(rx.pump().unwrap());
            std::thread::sleep(Duration::from_millis(1));
        }
        got
    }

    #[test]
    fn payloads_flow_between_transports() {
        let (mut a, mut b) = pair();
        a.queue(1, b"hello".to_vec());
        a.queue(1, b"world".to_vec());
        a.pump().unwrap();
        let got = pump_until(&mut b, 2);
        assert_eq!(got.len(), 2);
        assert_eq!(got[0], (0, b"hello".to_vec()));
        assert_eq!(got[1], (0, b"world".to_vec()));
        assert_eq!(a.stats().frames_out, 2);
        assert_eq!(b.stats().frames_in, 2);
    }

    /// The end-of-step flush drains the socket as well: what it drained
    /// is handed over by the next delivery, ahead of what came after.
    /// Loopback delivery is synchronous, so the run is deterministic.
    #[test]
    fn flush_carries_what_it_drains_to_the_next_delivery() {
        let (mut a, mut b) = pair();
        assert!(b.deliver_until(0.0).is_empty());
        a.send(0, 1, b"early".to_vec());
        a.flush();
        b.flush();
        assert_eq!(b.stats().frames_in, 1, "the flush's pump drained the datagram");
        a.send(0, 1, b"late".to_vec());
        a.flush();
        let got: Vec<_> =
            b.deliver_until(10.0).into_iter().map(|d| (d.from, d.to, d.payload)).collect();
        assert_eq!(got, [(0, 1, b"early".to_vec()), (0, 1, b"late".to_vec())]);
        assert!(b.deliver_until(20.0).is_empty(), "each frame is handed over once");
    }

    #[test]
    fn heartbeats_filtered_from_payload_stream_but_refresh_liveness() {
        let (mut a, mut b) = pair();
        a.beat().unwrap();
        assert_eq!(a.stats().heartbeats_sent, 1);
        let deadline = Instant::now() + Duration::from_secs(2);
        while b.stats().heartbeats_received == 0 && Instant::now() < deadline {
            let inbound = b.pump().unwrap();
            assert!(inbound.is_empty(), "heartbeats must not surface as payloads");
            std::thread::sleep(Duration::from_millis(1));
        }
        assert_eq!(b.stats().heartbeats_received, 1);
        assert_eq!(b.live_peers(u64::MAX), 1);
    }

    #[test]
    fn bounded_queue_drops_oldest() {
        let mut a = LiveTransport::bind(0, "127.0.0.1:0")
            .unwrap()
            .with_config(LiveConfig { max_queue: 2, heartbeat_every: 1000 });
        // A peer that never drains: a's socket still accepts sends, so
        // use an unregistered-peer-free setup with a real address.
        let sink = UdpEndpoint::bind(9, "127.0.0.1:0").unwrap();
        a.register_peer(1, sink.local_addr().unwrap());
        a.queue(1, b"one".to_vec());
        a.queue(1, b"two".to_vec());
        a.queue(1, b"three".to_vec()); // evicts "one"
        assert_eq!(a.queued(), 2);
        assert_eq!(a.stats().queue_dropped, 1);
        a.pump().unwrap();
        assert_eq!(a.stats().frames_out, 2);
        let got = {
            let deadline = Instant::now() + Duration::from_secs(2);
            let mut got = Vec::new();
            while got.len() < 2 && Instant::now() < deadline {
                while let Some(f) = sink.try_recv().unwrap() {
                    if !f.2.is_empty() {
                        // Skip the transport heartbeat the first pump emits.
                        got.push(f.2);
                    }
                }
            }
            got
        };
        assert_eq!(got, vec![b"two".to_vec(), b"three".to_vec()], "oldest was evicted");
    }

    #[test]
    fn unroutable_payloads_drop_counted() {
        let mut a = LiveTransport::bind(0, "127.0.0.1:0").unwrap();
        a.queue(42, b"nowhere".to_vec());
        assert_eq!(a.queued(), 0);
        assert_eq!(a.stats().unroutable_dropped, 1);
    }

    #[test]
    fn peer_rebind_is_followed() {
        let (mut a, b) = pair();
        drop(b);
        // The peer comes back on a fresh socket (same logical id 1).
        let mut b2 = LiveTransport::bind(1, "127.0.0.1:0").unwrap();
        b2.register_peer(0, a.local_addr().unwrap());
        b2.beat().unwrap();
        // a hears the heartbeat and re-learns 1's address…
        let heard = a.stats().heartbeats_received;
        let deadline = Instant::now() + Duration::from_secs(2);
        while a.stats().heartbeats_received == heard && Instant::now() < deadline {
            a.pump().unwrap();
            std::thread::sleep(Duration::from_millis(1));
        }
        assert!(a.stats().heartbeats_received > heard, "the new incarnation's heartbeat was lost");
        // …and traffic flows to the new incarnation.
        a.queue(1, b"welcome back".to_vec());
        a.pump().unwrap();
        let got = pump_until(&mut b2, 1);
        assert_eq!(got, vec![(0, b"welcome back".to_vec())]);
    }

    #[test]
    fn drain_rides_through_garbage() {
        let (mut a, mut b) = pair();
        let raw = std::net::UdpSocket::bind("127.0.0.1:0").unwrap();
        let dest = b.local_addr().unwrap();
        a.queue(1, b"before".to_vec());
        a.pump().unwrap();
        raw.send_to(b"\x00\x01garbage", dest).unwrap();
        a.queue(1, b"after".to_vec());
        a.pump().unwrap();
        let got = pump_until(&mut b, 2);
        assert_eq!(got.len(), 2, "one garbage datagram must not cost the rest of the drain");
        assert_eq!(b.stats().malformed, 1);
    }

    /// A peer that only listens: what it received, as (heartbeats, payloads).
    fn drain_sink(sink: &UdpEndpoint, want: usize) -> (usize, usize) {
        let deadline = Instant::now() + Duration::from_secs(2);
        let (mut heartbeats, mut payloads) = (0, 0);
        while heartbeats + payloads < want && Instant::now() < deadline {
            while let Some((_, _, payload)) = sink.try_recv().unwrap() {
                if payload.is_empty() {
                    heartbeats += 1;
                } else {
                    payloads += 1;
                }
            }
        }
        // Anything beyond `want` would already be queued on loopback.
        assert!(sink.try_recv().unwrap().is_none());
        (heartbeats, payloads)
    }

    /// Regression: `ticks % 0` used to panic on the first pump, release
    /// builds included. Zero now means "no cadence heartbeats".
    #[test]
    fn zero_cadence_sends_no_cadence_heartbeats() {
        let mut a = LiveTransport::bind(0, "127.0.0.1:0")
            .unwrap()
            .with_config(LiveConfig { heartbeat_every: 0, ..LiveConfig::default() });
        let sink = UdpEndpoint::bind(1, "127.0.0.1:0").unwrap();
        a.register_peer(1, sink.local_addr().unwrap());
        for _ in 0..50 {
            a.pump().unwrap();
        }
        assert_eq!(a.stats().heartbeats_sent, 0);
        a.beat().unwrap();
        assert_eq!(a.stats().heartbeats_sent, 1, "explicit beats still go out");
        assert_eq!(drain_sink(&sink, 1), (1, 0));
    }

    /// Regression: with `max_queue: 0` the eviction popped an empty queue
    /// and still counted a drop.
    #[test]
    fn queue_counts_only_payloads_it_dropped() {
        let mut a = LiveTransport::bind(0, "127.0.0.1:0")
            .unwrap()
            .with_config(LiveConfig { max_queue: 0, ..LiveConfig::default() });
        let sink = UdpEndpoint::bind(1, "127.0.0.1:0").unwrap();
        a.register_peer(1, sink.local_addr().unwrap());
        a.queue(1, b"one".to_vec());
        assert_eq!(a.stats().queue_dropped, 0, "nothing was queued, so nothing was dropped");
        a.queue(1, b"two".to_vec());
        assert_eq!(a.stats().queue_dropped, 1);
        assert_eq!(a.queued(), 1);
    }

    /// Updates are the heartbeat: on a cadence tick only the peers that
    /// were sent nothing for a whole interval get one.
    #[test]
    fn cadence_heartbeats_go_to_idle_peers_only() {
        let mut a = LiveTransport::bind(0, "127.0.0.1:0")
            .unwrap()
            .with_config(LiveConfig { heartbeat_every: 5, ..LiveConfig::default() });
        let sinks: Vec<UdpEndpoint> =
            (1..=3).map(|id| UdpEndpoint::bind(id, "127.0.0.1:0").unwrap()).collect();
        a.register_peer(1, sinks[0].local_addr().unwrap());
        a.register_peer(2, sinks[1].local_addr().unwrap());

        // Tick 1, the first cadence tick: everyone registered is beaten.
        a.pump().unwrap();
        assert_eq!(a.stats().heartbeats_sent, 2);
        assert_eq!(drain_sink(&sinks[0], 1), (1, 0));
        assert_eq!(drain_sink(&sinks[1], 1), (1, 0));

        // Peer 1 is sent a payload at tick 3; peer 2 stays silent.
        a.pump().unwrap();
        a.queue(1, b"update".to_vec());
        a.pump().unwrap();
        a.pump().unwrap();
        a.pump().unwrap();
        assert_eq!(a.stats().heartbeats_sent, 2, "ticks 2..=5 are off cadence");

        // Tick 6: the payload was peer 1's heartbeat; only peer 2 is idle.
        a.pump().unwrap();
        assert_eq!(a.ticks(), 6);
        assert_eq!(a.stats().heartbeats_sent, 3);
        assert_eq!(drain_sink(&sinks[0], 1), (0, 1));
        assert_eq!(drain_sink(&sinks[1], 1), (1, 0));

        // A peer registered between cadence ticks is beaten at the next
        // one — tick 11, by when the other two have been idle as well.
        a.register_peer(3, sinks[2].local_addr().unwrap());
        for _ in 7..=10 {
            a.pump().unwrap();
        }
        assert_eq!(a.stats().heartbeats_sent, 3);
        a.pump().unwrap();
        assert_eq!(a.stats().heartbeats_sent, 6);
        for sink in &sinks {
            assert_eq!(drain_sink(sink, 1), (1, 0));
        }
    }

    /// One scripted run over a full mesh of 16 loopback transports: node
    /// `i` talks to a neighbourhood that shifts every 32 ticks, so every
    /// pair goes idle and busy by turns. Pump-then-queue, as the ledger's
    /// `live16` loop does.
    fn scripted_mesh_run() -> Vec<LiveStats> {
        const NODES: u32 = 16;
        let mut mesh: Vec<LiveTransport> =
            (0..NODES).map(|i| LiveTransport::bind(i, "127.0.0.1:0").unwrap()).collect();
        let addrs: Vec<SocketAddr> = mesh.iter().map(|t| t.local_addr().unwrap()).collect();
        for (i, t) in mesh.iter_mut().enumerate() {
            for (j, addr) in addrs.iter().enumerate().filter(|&(j, _)| j != i) {
                t.register_peer(j as u32, *addr);
            }
        }
        for tick in 0..100u32 {
            for i in 0..NODES {
                let t = &mut mesh[i as usize];
                t.pump().unwrap();
                for hop in 1..=3 {
                    t.queue((i + hop + tick / 32 * 4) % NODES, vec![i as u8; 40 + hop as usize]);
                }
            }
        }
        // Two sweeps, nothing queued: flush the last tick, then collect it.
        for _ in 0..2 {
            for t in &mut mesh {
                t.pump().unwrap();
            }
        }
        mesh.iter().map(LiveTransport::stats).collect()
    }

    /// The ledger's selfcheck compares `LiveStats` between runs, so the
    /// idle rule must depend on the script alone.
    #[test]
    fn scripted_mesh_runs_end_with_equal_stats() {
        let first = scripted_mesh_run();
        assert_eq!(first, scripted_mesh_run());
        let sum = |f: fn(&LiveStats) -> u64| first.iter().map(f).sum::<u64>();
        assert_eq!(sum(|s| s.frames_out), 16 * 100 * 3);
        assert_eq!(sum(|s| s.frames_in), sum(|s| s.frames_out));
        assert_eq!(sum(|s| s.heartbeats_received), sum(|s| s.heartbeats_sent));
        let every_peer_every_cadence = 16 * 15 * 6;
        assert!(sum(|s| s.heartbeats_sent) < every_peer_every_cadence);
        assert!(sum(|s| s.heartbeats_sent) >= 16 * 15, "the first cadence tick reaches everyone");
    }
}
