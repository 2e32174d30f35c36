//! The byte-level seam a frame driver (`watchmen-sim`'s `Cluster`) steps
//! over: protocol cores sit in numbered slots, and once per frame the
//! driver hands over the deliveries due, ticks every slot that is up,
//! sends what the cores emitted and flushes. [`SimNetwork`] implements it
//! in virtual time over every simulated node; [`crate::live::LiveTransport`]
//! over a real socket, for its own id only.

use crate::simnet::{Delivery, NodeId, SimNetwork};

/// Datagram carriage for a frame driver. See the module docs.
pub trait Transport {
    /// Number of slot ids a driver may seat a core in.
    fn slots(&self) -> usize;
    /// Whether `slot` runs now; a driver skips a slot that is down.
    fn is_up(&self, slot: NodeId) -> bool;
    /// Puts `bytes` from `from` to `to` on the wire.
    fn send(&mut self, from: NodeId, to: NodeId, bytes: Vec<u8>);
    /// Everything that arrived by `t_ms`, in arrival order.
    fn deliver_until(&mut self, t_ms: f64) -> Vec<Delivery<Vec<u8>>>;
    /// Ends a step.
    fn flush(&mut self);
}

/// `deliver_until` is [`SimNetwork::advance_to`], a slot is down while
/// the fault plan crashes or gates it, and `flush` does nothing.
impl Transport for SimNetwork<Vec<u8>> {
    fn slots(&self) -> usize {
        self.node_count()
    }

    fn is_up(&self, slot: NodeId) -> bool {
        !self.is_crashed(slot) && !self.is_offline(slot)
    }

    fn send(&mut self, from: NodeId, to: NodeId, bytes: Vec<u8>) {
        let size = bytes.len();
        SimNetwork::send(self, from, to, bytes, size); // the inherent send
    }

    fn deliver_until(&mut self, t_ms: f64) -> Vec<Delivery<Vec<u8>>> {
        self.advance_to(t_ms)
    }

    fn flush(&mut self) {}
}
