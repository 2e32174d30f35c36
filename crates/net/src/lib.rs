//! Network substrate: deterministic discrete-event simulation plus a real
//! UDP transport.
//!
//! The paper evaluates responsiveness by replaying traces "over the
//! network, exactly as Quake III would", and separately by simulation:
//! "we simulated latency in our networking module using latencies
//! available from the King and PeerWise datasets … (with mean latencies of
//! 62 and 68 ms respectively). … Message loss is simulated with a rate of
//! 1%." This crate provides both paths:
//!
//! * [`SimNetwork`] — an in-process, virtual-time network with pluggable
//!   [`latency`] models (including King-like and PeerWise-like synthetic
//!   matrices), Bernoulli loss, per-node [`BandwidthMeter`]s and
//!   deterministic delivery ordering. A [`fault::FaultPlan`], built in
//!   code, can be layered on top for burst loss, duplication, reordering,
//!   crash windows and churn gates.
//! * [`udp`] — a small framed transport over real `UdpSocket`s for live
//!   overlay demos.
//! * [`live`] — a nonblocking batched-UDP driver shell (drain-all-per-tick
//!   receive, bounded send queue, heartbeat/address-relearning) for
//!   running a sans-io protocol core over real sockets.
//!
//! Both carry bytes behind one [`Transport`] trait, the seam a frame
//! driver steps over whichever wire it runs on.
//!
//! # Examples
//!
//! ```
//! use watchmen_net::{latency, SimNetwork};
//!
//! let mut net: SimNetwork<&'static str> = SimNetwork::new(
//!     4,
//!     latency::constant(10.0),
//!     0.0, // no loss
//!     42,
//! );
//! net.send(0, 1, "hello", 16);
//! let delivered = net.advance_to(20.0);
//! assert_eq!(delivered.len(), 1);
//! assert_eq!(delivered[0].payload, "hello");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod bandwidth;
mod event_queue;
pub mod fault;
pub mod latency;
pub mod live;
mod simnet;
mod transport;
pub mod udp;

pub use bandwidth::BandwidthMeter;
pub use event_queue::EventQueue;
pub use simnet::{Delivery, NetStats, NodeId, SimNetwork};
pub use transport::Transport;
