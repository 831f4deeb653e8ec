//! Execution traces: a full record of every message transmission.
//!
//! Traces are what turn a protocol run into data the lower-bound machinery can
//! inspect: the multiset of symbols transmitted on a set of edges (`σ_A(E')` in the
//! paper), the alphabet `Σ_G` of a run, or the sequence of deliveries leading to a
//! linear-cut snapshot.

use anet_graph::{EdgeId, NodeId};

use crate::observer::TraceDigest;

/// The workspace's stable FNV-1a 64-bit hasher, re-exported from
/// [`anet_num`].
///
/// It backs [`TraceDigest`], the sweep subsystem's partitioner and file
/// fingerprints, and `anet-graph`'s canonical topology fingerprints. The
/// hasher lives in `anet-num` (the workspace's root crate) so every layer —
/// including `anet-graph`, which this crate depends on — shares one set of
/// magic constants; this re-export keeps the historical
/// `anet_sim::trace::Fnv1a` path working.
pub use anet_num::Fnv1a;

/// A single transmitted message, recorded at send time. Observers see it as
/// a `SendEvent<&M>` that borrows the message
/// ([`crate::observer::Observer::on_send`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SendEvent<M> {
    /// Global sequence number of the send (0 for the root's initial message).
    pub seq: u64,
    /// The edge the message was placed on.
    pub edge: EdgeId,
    /// Source vertex.
    pub src: NodeId,
    /// Destination vertex.
    pub dst: NodeId,
    /// Wire size of the message in bits.
    pub bits: u64,
    /// The message itself.
    pub message: M,
}

/// A full record of the sends of one protocol run, in send order.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Trace<M> {
    events: Vec<SendEvent<M>>,
}

impl<M> Trace<M> {
    /// Creates an empty trace.
    pub fn new() -> Self {
        Trace { events: Vec::new() }
    }

    /// Creates an empty trace with room for `capacity` events, so the engine's
    /// hot path can record sends without reallocating (a run on a reliable
    /// schedule sends at least one message per reached edge, which is the
    /// capacity the engine passes).
    pub fn with_capacity(capacity: usize) -> Self {
        Trace {
            events: Vec::with_capacity(capacity),
        }
    }

    /// Appends an event.
    pub fn push(&mut self, event: SendEvent<M>) {
        self.events.push(event);
    }

    /// All events in send order.
    pub fn events(&self) -> &[SendEvent<M>] {
        &self.events
    }

    /// Number of recorded sends.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Returns `true` if nothing was sent.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// The messages transmitted over a given edge, in transmission order.
    pub fn messages_on_edge(&self, edge: EdgeId) -> Vec<&M> {
        self.events
            .iter()
            .filter(|e| e.edge == edge)
            .map(|e| &e.message)
            .collect()
    }

    /// The multiset of messages transmitted over a set of edges — the paper's
    /// `σ_A(E')` — rendered through `key` so callers can choose the equality used
    /// for "the same symbol" (typically a canonical string or byte encoding).
    pub fn multiset_on_edges<K: Ord, F: Fn(&M) -> K>(&self, edges: &[EdgeId], key: F) -> Vec<K> {
        let mut keys: Vec<K> = self
            .events
            .iter()
            .filter(|e| edges.contains(&e.edge))
            .map(|e| key(&e.message))
            .collect();
        keys.sort();
        keys
    }

    /// The set of distinct symbols transmitted anywhere during the run — the
    /// paper's `Σ_G` — rendered through `key`.
    pub fn distinct_symbols<K: Ord, F: Fn(&M) -> K>(&self, key: F) -> Vec<K> {
        let mut keys: Vec<K> = self.events.iter().map(|e| key(&e.message)).collect();
        keys.sort();
        keys.dedup();
        keys
    }

    /// A stable, order-sensitive 64-bit digest of the trace's structure: the
    /// [`TraceDigest`] of its events, in send order.
    ///
    /// The digest deliberately ignores message *contents* (which may not have a
    /// canonical byte encoding) but covers their wire sizes, so two runs agree
    /// iff they transmitted the same sizes on the same edges in the same order.
    /// It depends only on integer arithmetic, so it is identical across
    /// platforms and processes.
    pub fn digest(&self) -> u64 {
        let mut digest = TraceDigest::new();
        for event in &self.events {
            digest.write(event);
        }
        digest.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(seq: u64, edge: usize, msg: u32) -> SendEvent<u32> {
        SendEvent {
            seq,
            edge: EdgeId(edge),
            src: NodeId(0),
            dst: NodeId(1),
            bits: 8,
            message: msg,
        }
    }

    #[test]
    fn trace_collects_events_in_order() {
        let mut t = Trace::new();
        assert!(t.is_empty());
        t.push(ev(0, 0, 10));
        t.push(ev(1, 1, 20));
        t.push(ev(2, 0, 10));
        assert_eq!(t.len(), 3);
        assert_eq!(t.events()[1].message, 20);
        assert_eq!(t.messages_on_edge(EdgeId(0)), vec![&10, &10]);
    }

    #[test]
    fn digest_is_stable_and_structure_sensitive() {
        let mut t = Trace::new();
        t.push(ev(0, 0, 10));
        t.push(ev(1, 1, 20));
        // Deterministic across calls (and, being pure integer FNV, across
        // platforms and processes).
        assert_eq!(t.digest(), t.digest());
        assert_eq!(Trace::<u32>::new().digest(), Trace::<u32>::new().digest());
        assert_ne!(t.digest(), Trace::<u32>::new().digest());
        // Order-sensitive: swapping the events changes the digest.
        let mut swapped = Trace::new();
        swapped.push(ev(1, 1, 20));
        swapped.push(ev(0, 0, 10));
        assert_ne!(t.digest(), swapped.digest());
        // Sensitive to edges and to wire sizes, but not to message contents.
        let mut other_edge = Trace::new();
        other_edge.push(ev(0, 2, 10));
        other_edge.push(ev(1, 1, 20));
        assert_ne!(t.digest(), other_edge.digest());
        let mut other_bits = Trace::new();
        other_bits.push(SendEvent {
            bits: 9,
            ..ev(0, 0, 10)
        });
        other_bits.push(ev(1, 1, 20));
        assert_ne!(t.digest(), other_bits.digest());
        let mut other_payload = Trace::new();
        other_payload.push(ev(0, 0, 99));
        other_payload.push(ev(1, 1, 77));
        assert_eq!(t.digest(), other_payload.digest());
    }

    #[test]
    fn multiset_and_distinct_symbols() {
        let mut t = Trace::new();
        t.push(ev(0, 0, 10));
        t.push(ev(1, 1, 20));
        t.push(ev(2, 2, 10));
        let multi = t.multiset_on_edges(&[EdgeId(0), EdgeId(2)], |m| *m);
        assert_eq!(multi, vec![10, 10]);
        let distinct = t.distinct_symbols(|m| *m);
        assert_eq!(distinct, vec![10, 20]);
    }
}
